package core

import (
	"fmt"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/obs"
	"symnet/internal/prog"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// This file is Run's driver loop: the injection step, then a depth-first
// walk over one stack of states. Each iteration pops the newest state and
// steps it, and the step pushes the state's successors in the order it
// produced them, so the last successor is explored first. A path takes the
// next ID when it finishes and fresh symbols are numbered in the order they
// are minted, so that order fixes every ID a Result carries (the golden
// digests in internal/sched pin it). The stack never holds more than
// depth × (fan − 1) + 1 states for a tree of the given depth and fan-out.

// run is one Run in progress.
type run struct {
	net     *Network
	opts    Options
	init    sefl.Instr    // injection code
	injProg *prog.Program // compiled injection code (nil under ASTInterp)
	// slot is the network's injection slot when the run may share its
	// packet: compiled, untraced code that does not read its element.
	slot *injection
	// alloc is allocated on its own because a Result keeps it: its Alloc
	// continues the run's allocator. As a field of the run it would keep
	// the stack and the run reachable from the Result. solverStats is
	// counted into until the run ends (EndRun), so no Result keeps it.
	alloc       *expr.Alloc
	solverStats solver.Stats
	memo        *solver.SatCache
	inst        instruments
	stack       []*state // states waiting at an input port; the top is next
	// onCycle marks, by port ID, the input ports loopCheck records visits
	// at (empty when loop detection is off or the network has no cycle).
	onCycle []bool
	// refuter is the variable that refuted the run's last failed
	// subsumption test (when hasRefuter), which the next test reads first:
	// what a path changes on one lap of a cycle it tends to change on the
	// next.
	refuter    memory.Var
	hasRefuter bool
	// visit holds the successors of the input-port visit step is settling,
	// cleared once they depart. It lives here, not on step's stack: the
	// program walk recurses through runFor, which would move a stack
	// buffer to the heap on every step.
	visit [4]*state
	paths []*Path
	stats RunStats
	// env is the evaluator adapter of every program this run executes,
	// re-pointed at the current state before each evaluation.
	env progEnv
}

// instruments are a run's telemetry instruments, resolved once. All are nil
// when Options.Obs carries no registry — the disabled fast path: the hot
// path pays one branch and no map lookups (see internal/obs).
type instruments struct {
	progHits   *obs.Counter   // core.progcache.hits: port programs already compiled
	progMisses *obs.Counter   // core.progcache.misses: port programs compiled
	queueDepth *obs.Gauge     // core.queue.depth.max: state-stack high-water
	satNs      *obs.Histogram // solver.sat.check_ns: per-Sat-check wall time
	progExecNs *obs.Histogram // prog.exec_ns: per-visit program execution
}

// newRun validates the injection point and prepares a run.
func newRun(net *Network, inject PortRef, init sefl.Instr, opts Options) (*run, error) {
	opts = opts.withDefaults()
	elem, ok := net.Element(inject.Elem)
	if !ok {
		return nil, fmt.Errorf("core: inject element %q not found", inject.Elem)
	}
	if inject.Out || inject.Port < 0 || inject.Port >= elem.NumIn {
		return nil, fmt.Errorf("core: inject port %s invalid", inject)
	}
	memo := opts.SatMemo
	if memo == nil {
		memo = solver.NewSatCache()
	}
	r := &run{net: net, opts: opts, init: init,
		alloc: &expr.Alloc{}, memo: memo}
	r.env.r = r
	if opts.Loop != LoopOff {
		r.onCycle = net.onCycle()
	}
	if opts.Obs != nil && opts.Obs.Reg != nil {
		reg := opts.Obs.Reg
		r.inst = instruments{
			progHits:   reg.Counter("core.progcache.hits"),
			progMisses: reg.Counter("core.progcache.misses"),
			queueDepth: reg.Gauge("core.queue.depth.max"),
			satNs:      reg.Histogram("solver.sat.check_ns"),
			progExecNs: reg.Histogram("prog.exec_ns"),
		}
	}
	if !opts.ASTInterp && init != nil {
		// Compiling keeps every instruction on the one (compiled) execution
		// path; the network keeps the program, and the packet it builds,
		// for the next run. A traced packet's trace names its element.
		r.injProg, r.slot = net.injectProgram(init, elem)
		if opts.Trace {
			r.slot = nil
		}
	}
	// The stack starts as the state at the injection port; explore builds
	// its packet before it steps anything.
	r.stack = []*state{{
		Here:    elem.at(inject.Port, false),
		traceOn: opts.Trace,
	}}
	return r, nil
}

// explore runs the injection, then steps states until the stack is empty,
// and ends the solver run. A path count past MaxPaths aborts the run.
func (r *run) explore() (*Result, error) {
	root := r.stack[0]
	r.stack = r.runInjection(r.stack[:0], root)
	for len(r.stack) > 0 {
		r.inst.queueDepth.SetMax(int64(len(r.stack)))
		st := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		r.stack = r.step(r.stack, st)
		r.stats.Hops++
		if len(r.paths) > r.opts.MaxPaths {
			return nil, fmt.Errorf("core: path budget exceeded (%d)", r.opts.MaxPaths)
		}
	}
	r.stats.Symbols = r.alloc.Count()
	r.stats.Solver = r.solverStats
	root.Ctx.EndRun()
	return &Result{Paths: r.paths, Stats: r.stats, Alloc: r.alloc}, nil
}

// runInjection builds the symbolic packet: injection code runs in the
// context of the target element (so local metadata in templates scopes
// sensibly) before the packet enters the port. A packet an earlier run of
// the same code left in the network's slot is cloned instead.
func (r *run) runInjection(next []*state, st *state) []*state {
	if r.slot != nil {
		if pkt := r.slot.pkt.Load(); pkt != nil {
			r.startFrom(st, pkt)
			return append(next, st)
		}
	}
	st.Mem = new(memory.Mem)
	st.Ctx = r.attach(solver.NewContext(&r.solverStats))
	var states []*state
	if r.injProg != nil {
		states = r.runProgram(nil, st, r.injProg)
	} else {
		states = r.exec(nil, st, st.Here.elem, r.init, nil)
	}
	if len(states) == 1 {
		r.keepPacket(states[0])
	}
	for _, s := range states {
		if s.Status == Failed {
			r.finish(s)
			continue
		}
		if s.forwarding() {
			r.finish(failWith(s, "injection code must not forward"))
			continue
		}
		next = append(next, s)
	}
	return next
}

// packet is the state injection code leaves, frozen: its sealed memory, its
// context in a run that has ended, and what the run had counted by then —
// the symbols it minted, the solver's counts and its own. A run that starts
// from a clone of it (startFrom) gives the Result running the code gives.
type packet struct {
	mem    memory.Mem
	ctx    solver.Context
	alloc  expr.Alloc
	solver solver.Stats
	stats  RunStats
}

// keepPacket stores st, the one state the injection left, as the slot's
// packet when it may be shared: the slot is set, st is live and not
// forwarding, and the injection made no Sat check (a later run would skip
// the check's cache lookup and its latency sample). The first run to
// qualify stores it.
func (r *run) keepPacket(st *state) {
	if r.slot == nil || st.Status != active || st.forwarding() ||
		r.solverStats.SatChecks != 0 || r.slot.pkt.Load() != nil {
		return
	}
	pkt := &packet{alloc: *r.alloc, solver: r.solverStats, stats: r.stats}
	st.Mem.CloneInto(&pkt.mem)
	st.Ctx.CloneIntoRun(&pkt.ctx, nil)
	r.slot.pkt.Store(pkt)
}

// startFrom puts st at the start of pkt: clones of its memory and its
// context, the context in this run, and the run's counts where the
// injection left them.
func (r *run) startFrom(st *state, pkt *packet) {
	b := new(forkBox)
	st.Mem = pkt.mem.CloneInto(&b.mem)
	st.Ctx = r.attach(pkt.ctx.CloneIntoRun(&b.ctx, &r.solverStats))
	*r.alloc = pkt.alloc
	r.solverStats = pkt.solver
	r.stats = pkt.stats
}

// attach gives c, the run's first context, the run's Sat cache and latency
// histogram, and returns it. Clones inherit both, so every path of the run
// reports its Sat latencies (no-op when telemetry is off).
func (r *run) attach(c *solver.Context) *solver.Context {
	c.SetCache(r.memo)
	c.SetSatHistogram(r.inst.satNs)
	return c
}

// finish records a completed state as the run's next path. The path's
// memory is sealed: it is read-only from here on, so clones of it write
// nothing (see memory.Mem.Seal).
func (r *run) finish(st *state) {
	st.Mem.Seal()
	r.record(&Path{
		Status:  st.Status,
		FailMsg: st.FailMsg,
		hist:    st.hist,
		Trace:   render(st.trace, func(line string) string { return line }),
		Mem:     st.Mem,
		ctx:     st.Ctx,
	})
}

// record numbers a finished path and counts it.
func (r *run) record(p *Path) {
	p.ID = len(r.paths)
	r.paths = append(r.paths, p)
	r.stats.Paths++
	switch p.Status {
	case Delivered:
		r.stats.Delivered++
	case Failed:
		r.stats.Failed++
	case Looped:
		r.stats.Looped++
	}
}
