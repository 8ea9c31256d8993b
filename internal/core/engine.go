package core

import (
	"fmt"
	"regexp"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/obs"
	"symnet/internal/prog"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// LoopMode selects the loop-detection strategy (§6 of the paper). The zero
// value is LoopFull, so a run that names no mode, here or on a fleet
// member, detects loops in full.
type LoopMode uint8

const (
	// LoopFull compares the domains of all header fields and metadata; TTL
	// decrements therefore defeat it, as the paper notes.
	LoopFull LoopMode = iota
	// LoopOff disables loop detection (a hop budget still bounds paths).
	LoopOff
	// LoopAddrOnly compares only the IP source and destination addresses,
	// catching traditional forwarding loops.
	LoopAddrOnly
)

// DefaultMaxHops and DefaultMaxPaths are a run's budgets when Options
// leaves MaxHops or MaxPaths 0.
const (
	DefaultMaxHops  = 4096
	DefaultMaxPaths = 1 << 20
)

// Options configures a run. The zero value gives sensible defaults.
type Options struct {
	// MaxHops bounds the number of port visits per path (default
	// DefaultMaxHops).
	MaxHops int
	// MaxPaths aborts runs that explode (default DefaultMaxPaths).
	MaxPaths int
	// Loop selects loop detection; default (the zero value) LoopFull.
	Loop LoopMode
	// Trace records executed instructions on each path (costly; default off).
	// A trace line renders a table guard as its span table, as its failure
	// message does, so tables with equal span tables trace alike.
	Trace bool
	// SatMemo is the satisfiability memo cache shared by every path of the
	// run. Nil selects a fresh per-run cache; passing one in shares memoized
	// verdicts across runs (batch verification, repair-and-verify loops).
	// Results and statistics are identical either way — cache hits replay
	// the original computation's counters (see solver.SatCache).
	SatMemo *solver.SatCache
	// Workers sizes a symnet.Session's batch fan-out (RunBatch, AllPairs,
	// Serve): > 1 runs that many jobs side by side, 0 and 1 one at a time,
	// < 0 one per core. A single Run always explores on the calling
	// goroutine, so core reads nothing here. Results are identical at every
	// width.
	Workers int
	// ASTInterp selects the tree-walking AST interpreter instead of compiled
	// programs — the executable reference semantics for the differential
	// suites and experiments, and the debugging aid for suspected compiler
	// bugs, not a mode to run in. Results, statistics, traces and symbol
	// allocation are byte-identical with it set (pinned by the property
	// tests in internal/prog). It runs in-process only: a fleet (dist.Pool)
	// refuses a job that sets it, and serving (churn.Service.Init,
	// symnet.Session.Serve) refuses it too: it chains a table guard's
	// Or-tree into the path's condition fingerprint, so the rows, not just
	// the span table, are observable, and a delta that keeps a port's span
	// table could not skip its visitors.
	ASTInterp bool
	// Obs attaches observability sinks (metrics registry, span tracer; see
	// internal/obs). Telemetry is strictly observational: results, traces
	// and statistics are byte-identical with or without it (pinned by the
	// differential suites, which run with metrics on). Nil disables
	// instrumentation at one-branch cost. Obs never crosses the distributed
	// wire — worker processes attach their own and ship snapshots back.
	Obs *obs.Obs
}

func (o Options) withDefaults() Options {
	if o.MaxHops == 0 {
		o.MaxHops = DefaultMaxHops
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = DefaultMaxPaths
	}
	return o
}

// Run injects a packet built by init at the given input port and explores
// all execution paths. init executes before the packet enters the port (it
// is the paper's "code to create a symbolic packet of the given type").
// The network keeps init's program for the next run, which reuses it when
// its init is equal (sefl.Equal): at the element it was compiled for, and at
// any other unless the code reads its element (a Local metadata key, a
// For). It keeps its own copy of init, so the caller may edit init once Run
// returns.
//
// Run explores depth-first on the calling goroutine, from one stack of
// states and one symbol allocator: a path's ID is the order it finished in
// (see explore.go). A run stops at the first step that takes it past
// MaxPaths. Parallelism lives one level up: a batch runs independent Runs
// side by side (internal/sched).
func Run(net *Network, inject PortRef, init sefl.Instr, opts Options) (*Result, error) {
	r, err := newRun(net, inject, init, opts)
	if err != nil {
		return nil, err
	}
	return r.explore()
}

func failWith(st *state, msg string) *state {
	st.fail(msg)
	return st
}

// step processes one state positioned at an input port: loop check, input
// code, output codes, link traversal. It appends the states to keep
// exploring to next; finished paths are recorded on the run.
func (r *run) step(next []*state, st *state) []*state {
	elem := st.Here.elem
	st.pushHistory(st.Here)
	st.hops++
	if st.hops > r.opts.MaxHops {
		r.finish(failWith(st, fmt.Sprintf("hop budget exceeded (%d)", r.opts.MaxHops)))
		return next
	}
	if r.loopCheck(st) {
		st.Status = Looped
		r.finish(st)
		return next
	}

	// The visit's successors live only until they depart (a visit rarely
	// forks more than a few ways).
	p, src, ok := r.portCode(st.Here)
	if !ok {
		// No code: the packet stops here.
		st.Status = Delivered
		r.finish(st)
		return next
	}
	states := r.execCode(r.visit[:0], st, elem, p, src)

	for _, s := range states {
		if s.Status == Failed {
			r.finish(s)
			continue
		}
		if !s.forwarding() {
			s.Status = Delivered
			r.finish(s)
			continue
		}
		next = r.depart(next, s, elem)
	}
	clear(r.visit[:])
	return next
}

// depart runs output-port code for each pending output port and follows
// links, appending the states that cross one to next. A state leaving
// through k ports becomes k independent paths: the last port's runs on st,
// every other port's on a clone of it. Each port's code is looked up once.
//
// An egress port's program opens with its table guard (a Constrain), and
// most departures die there, so the guard is evaluated once on st before
// anything is cloned. A guard st's domains refute finishes the port's path
// without a state (departRefuted); a port that may admit the packet gets
// its clone, asserts the evaluated guard and runs on from the next op —
// evaluating again would mint the guard's fresh symbols twice. With tracing
// on, or behind Options.ASTInterp, every port's code runs whole on its
// state.
func (r *run) depart(next []*state, st *state, elem *Element) []*state {
	ports := st.outPorts
	st.outPorts = nil
	var frozen *forkBox // st's, shared by every refuted port's path
	for i, port := range ports {
		last := i == len(ports)-1
		if port < 0 || port >= elem.NumOut {
			r.finish(failWith(st.leave(last), fmt.Sprintf("forward to nonexistent output port %d of %s", port, elem.Name)))
			continue
		}
		outPort := elem.at(port, true)
		p, src, ok := r.portCode(outPort)
		if !ok {
			next = r.follow(next, st.leaving(last, outPort), outPort)
			continue
		}
		n := len(next)
		out := next
		if g, guarded := entryGuard(p); guarded && !st.traceOn {
			t := r.inst.progExecNs.Start()
			r.env.st = st
			cond, err := prog.EvalCond(&r.env, p.Ops[g].C)
			if err == nil && !last && st.Ctx.Refutes(cond) {
				if frozen == nil {
					frozen = st.box()
				}
				r.departRefuted(st, frozen, outPort, cond, p.ConstrainFailMsg(g))
				t.Stop()
				continue
			}
			s := st.leaving(last, outPort)
			constrain(s, p, g, cond, err)
			out = r.runSeg(next, p, p.Entry, g+1, s)
			t.Stop()
		} else {
			out = r.execCode(next, st.leaving(last, outPort), elem, p, src)
		}
		// Settle the appended states in place: each one is kept (at an
		// index no later than its own) only if it crosses the link.
		next = out[:n]
		for _, os := range out[n:] {
			switch {
			case os.Status == Failed:
				r.finish(os)
			case os.forwarding():
				r.finish(failWith(os, "output-port code must not forward"))
			default:
				next = r.follow(next, os, outPort)
			}
		}
	}
	return next
}

// entryGuard returns the index of a program's first op when that op is a
// Constrain: the table guard an egress port's code opens with. p may be nil
// (AST-interpreted code).
func entryGuard(p *prog.Program) (int32, bool) {
	if p == nil {
		return 0, false
	}
	seg := p.Seg(p.Entry)
	return seg.Lo, seg.Lo < seg.Hi && p.Ops[seg.Lo].Kind == prog.OpConstrain
}

// refutedPath is what a departure whose port guard its domains refute
// leaves behind: the Path and its last history node, allocated together
// because the Path keeps both.
type refutedPath struct {
	path Path
	hist trail[*port]
}

// departRefuted finishes the path that would leave st through out, whose
// guard cond Refutes refuted, without cloning st: the Path is st's as the
// clone's refuted Constrain would have left it. It keeps frozen, st's
// memory and context boxed once per departure, and cond, which Path.Ctx
// adds on read; the Add skipped here is counted as the clone's would be.
func (r *run) departRefuted(st *state, frozen *forkBox, out *port, cond expr.Cond, msg string) {
	if !st.Ctx.Unsat() {
		r.solverStats.Adds++
	}
	b := new(refutedPath)
	b.hist = trail[*port]{v: out, prev: st.hist, n: st.hist.len() + 1}
	b.path = Path{Status: Failed, FailMsg: msg, Mem: &frozen.mem, ctx: &frozen.ctx, guard: cond, hist: &b.hist}
	r.record(&b.path)
}

// follow moves a state across the link leaving out and appends it to next,
// or finishes it when the port is unconnected ("a path finishes ... when it
// reaches a port with no outgoing links").
func (r *run) follow(next []*state, st *state, out *port) []*state {
	in := r.net.links[out.id]
	if in == nil {
		st.Status = Delivered
		r.finish(st)
		return next
	}
	st.Here = in
	return append(next, st)
}

// --- AST instruction interpreter (reference semantics) ---

// astFrame is a continuation of the AST interpreter: the instructions left
// in an enclosing Block once the current instruction finishes, and the frame
// below.
type astFrame struct {
	is   []sefl.Instr
	next *astFrame
}

// exec runs one instruction on a state and then the continuation k on each
// successor, appending the finished states to out. It is state-major, like
// the compiled-program walk: each successor of an If, For or Block runs the
// rest of the program before the next sibling starts. A state that failed
// or set pending output ports skips the rest; callers decide what happens
// next. It appends nothing only when every successor was pruned as
// infeasible.
//
// This recursive tree walk is the engine's reference interpreter, selected
// by Options.ASTInterp; the default execution path compiles port programs
// to the flat IR of internal/prog and dispatches over it (compiled.go),
// with byte-identical observable behavior.
func (r *run) exec(out []*state, st *state, elem *Element, ins sefl.Instr, k *astFrame) []*state {
	if st.Status == Failed || st.forwarding() {
		return append(out, st)
	}
	if st.traceOn {
		if _, isBlock := ins.(sefl.Block); !isBlock {
			st.pushTrace(fmt.Sprintf("%s: %s", elem.Name, ins))
		}
	}
	switch v := ins.(type) {
	case sefl.NoOp:
		return r.cont(out, st, elem, k)

	case sefl.Block:
		if len(v.Is) == 0 {
			return r.cont(out, st, elem, k)
		}
		return r.exec(out, st, elem, v.Is[0], &astFrame{is: v.Is[1:], next: k})

	case sefl.Allocate:
		loc, err := r.resolveLV(st, elem, v.LV)
		if err != nil {
			return append(out, failWith(st, err.Error()))
		}
		size := v.Size
		if size == 0 {
			if h, ok := v.LV.(sefl.Hdr); ok {
				size = h.Size
			}
		}
		if loc.isHdr {
			if err := st.Mem.AllocateHdr(loc.off, size); err != nil {
				return append(out, failWith(st, err.Error()))
			}
		} else if err := st.Mem.AllocateMeta(loc.key, size); err != nil {
			return append(out, failWith(st, err.Error()))
		}
		return r.cont(out, st, elem, k)

	case sefl.Deallocate:
		loc, err := r.resolveLV(st, elem, v.LV)
		if err != nil {
			return append(out, failWith(st, err.Error()))
		}
		size := v.Size
		if size == 0 {
			if h, ok := v.LV.(sefl.Hdr); ok {
				size = h.Size
			}
		}
		if loc.isHdr {
			if err := st.Mem.DeallocateHdr(loc.off, size); err != nil {
				return append(out, failWith(st, err.Error()))
			}
		} else if err := st.Mem.DeallocateMeta(loc.key, size); err != nil {
			return append(out, failWith(st, err.Error()))
		}
		return r.cont(out, st, elem, k)

	case sefl.Assign:
		loc, err := r.resolveLV(st, elem, v.LV)
		if err != nil {
			return append(out, failWith(st, err.Error()))
		}
		hint := 0
		if loc.isHdr {
			hint = loc.size
		} else if w, ok := st.Mem.MetaWidth(loc.key); ok {
			hint = w
		}
		val, err := r.evalExpr(st, elem, v.E, hint)
		if err != nil {
			return append(out, failWith(st, err.Error()))
		}
		if hint != 0 && val.Width != hint {
			if cv, isConst := val.ConstVal(); isConst {
				val = expr.Const(cv, hint)
			} else {
				return append(out, failWith(st, fmt.Sprintf("assign width mismatch: %d-bit value into %d-bit field", val.Width, hint)))
			}
		}
		if loc.isHdr {
			if err := st.Mem.AssignHdr(loc.off, loc.size, val); err != nil {
				return append(out, failWith(st, err.Error()))
			}
		} else if err := st.Mem.AssignMeta(loc.key, val); err != nil {
			return append(out, failWith(st, err.Error()))
		}
		return r.cont(out, st, elem, k)

	case sefl.CreateTag:
		val, err := r.evalExpr(st, elem, v.E, 64)
		if err != nil {
			return append(out, failWith(st, err.Error()))
		}
		cv, ok := val.ConstVal()
		if !ok {
			return append(out, failWith(st, fmt.Sprintf("CreateTag(%q): tag value must be concrete", v.Name)))
		}
		st.Mem.CreateTag(v.Name, int64(cv))
		return r.cont(out, st, elem, k)

	case sefl.DestroyTag:
		if err := st.Mem.DestroyTag(v.Name); err != nil {
			return append(out, failWith(st, err.Error()))
		}
		return r.cont(out, st, elem, k)

	case sefl.Constrain:
		cond, err := r.evalCond(st, elem, v.C)
		if err != nil {
			return append(out, failWith(st, err.Error()))
		}
		if !st.Ctx.Add(cond) || (st.Ctx.PendingOrs() > 0 && !st.Ctx.Sat()) {
			return append(out, failWith(st, prog.UnsatMsg(v.C)))
		}
		return r.cont(out, st, elem, k)

	case sefl.Fail:
		return append(out, failWith(st, v.Msg))

	case sefl.If:
		cond, err := r.evalCond(st, elem, v.C)
		if err != nil {
			return append(out, failWith(st, err.Error()))
		}
		thenSt := st.clone()
		elseSt := st
		if thenSt.Ctx.Add(cond) && (thenSt.Ctx.PendingOrs() == 0 || thenSt.Ctx.Sat()) {
			out = r.exec(out, thenSt, elem, v.Then, k)
		} else {
			r.stats.Pruned++
		}
		if elseSt.Ctx.Add(expr.NewNot(cond)) && (elseSt.Ctx.PendingOrs() == 0 || elseSt.Ctx.Sat()) {
			out = r.exec(out, elseSt, elem, v.Else, k)
		} else {
			r.stats.Pruned++
		}
		return out

	case sefl.For:
		re, err := regexp.Compile(v.Pattern)
		if err != nil {
			return append(out, failWith(st, fmt.Sprintf("For: bad pattern %q: %v", v.Pattern, err)))
		}
		// The loop is the block of its bodies, one per key, each built once;
		// every state it yields then continues, in order.
		keys := st.Mem.MetaKeysMatching(re, elem.Instance)
		bodies := make([]sefl.Instr, len(keys))
		for i, key := range keys {
			bodies[i] = v.Body(sefl.Meta{Name: key.Name, Instance: key.Instance, Pinned: true})
		}
		for _, s := range r.exec(nil, st, elem, sefl.Block{Is: bodies}, nil) {
			out = r.cont(out, s, elem, k)
		}
		return out

	case sefl.Forward:
		st.outPorts = []int{v.Port}
		return r.cont(out, st, elem, k)

	case sefl.Fork:
		if len(v.Ports) == 0 {
			return append(out, failWith(st, "Fork with no ports"))
		}
		st.outPorts = append([]int(nil), v.Ports...)
		return r.cont(out, st, elem, k)
	}
	return append(out, failWith(st, fmt.Sprintf("unknown instruction %T", ins)))
}

// cont runs the continuation k on st, appending the finished states to out.
func (r *run) cont(out []*state, st *state, elem *Element, k *astFrame) []*state {
	for ; k != nil; k = k.next {
		if len(k.is) > 0 {
			return r.exec(out, st, elem, k.is[0], &astFrame{is: k.is[1:], next: k.next})
		}
	}
	return append(out, st)
}

// --- Loop detection (§6, Fig. 5) ---

// loopCheck reports whether the state at an input port contains an earlier
// visit's state there ("a loop exists only when the new state contains all
// possible values in the old state"), and otherwise records this visit. A
// port no cycle of the network enters (Network.onCycle) is never entered
// twice by one path, so it records nothing.
//
// A visit's record is a snapshot: the path's memory, sealed so its later
// writes copy what they touch, and its context's domain stores, which are
// never written in place. So recording copies two headers, and the domains
// are read only when a later visit to the same port compares against them,
// without writing the path's context.
func (r *run) loopCheck(st *state) bool {
	if int(st.Here.id) >= len(r.onCycle) || !r.onCycle[st.Here.id] {
		return false
	}
	doms := st.Ctx.Domains()
	vars := -1 // st's assigned variables, counted on the first comparison
	for s := st.seen; s != nil; s = s.prev {
		if s.at == st.Here && r.subsumed(s, st.Mem, &doms, &vars) {
			return true
		}
	}
	snap := &snapshot{at: st.Here, prev: st.seen, doms: doms}
	st.Mem.CloneInto(&snap.mem)
	st.seen = snap
	return false
}

// subsumed reports old ⊆ new for the earlier visit s and the packet mem
// under doms: every variable tracked at s is tracked in mem, and no other
// is, with a domain that contains its domain at s. The test is a
// conjunction, so the order of its terms cannot change the verdict; it
// reads the run's last refuting variable first, then the rest, and counts
// mem's variables only when every one of s's has passed. vars caches that
// count (-1: not yet counted).
func (r *run) subsumed(s *snapshot, mem *memory.Mem, doms *solver.Domains, vars *int) bool {
	if r.opts.Loop == LoopAddrOnly {
		old, oldOK := addrs(&s.mem)
		cur, curOK := addrs(mem)
		for i := range old {
			if oldOK[i] != curOK[i] || oldOK[i] && !s.doms.Within(old[i], doms, cur[i]) {
				return false
			}
		}
		return true
	}
	passed := false // r.refuter is tracked at s and passed the test
	if r.hasRefuter {
		if old, ok := s.mem.Value(r.refuter); ok {
			if cur, found := mem.Value(r.refuter); !found || !s.doms.Within(old, doms, cur) {
				return false
			}
			passed = true
		}
	}
	n, ok := 0, true
	s.mem.Vars(func(v memory.Var, old expr.Lin) bool {
		n++
		if passed && v == r.refuter {
			return true
		}
		cur, found := mem.Value(v)
		if ok = found && s.doms.Within(old, doms, cur); !ok {
			r.refuter, r.hasRefuter = v, true
		}
		return ok
	})
	if !ok {
		return false
	}
	if *vars < 0 {
		*vars = 0
		mem.Vars(func(memory.Var, expr.Lin) bool {
			*vars++
			return true
		})
	}
	return n == *vars
}

// addrs reads the IP source and destination addresses through the current
// L3 tag: the variables LoopAddrOnly tracks, each with whether it is set.
func addrs(mem *memory.Mem) (vals [2]expr.Lin, ok [2]bool) {
	base, tagged := mem.Tag(sefl.TagL3)
	if !tagged {
		return vals, ok
	}
	for i, rel := range [2]int64{96, 128} {
		vals[i], ok[i] = mem.Value(memory.Var{Off: base + rel, Size: 32})
	}
	return vals, ok
}
