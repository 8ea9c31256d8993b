package core

import (
	"iter"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/solver"
)

// Status describes how an execution path ended.
type Status uint8

const (
	// active paths are still executing (never visible in results).
	active Status = iota
	// Delivered paths stopped normally: they reached a port with no
	// outgoing link (or no code consuming them).
	Delivered
	// Failed paths hit Fail, an unsatisfiable Constrain, or a
	// memory-safety violation.
	Failed
	// Looped paths were stopped by the loop detector.
	Looped
)

func (s Status) String() string {
	switch s {
	case active:
		return "active"
	case Delivered:
		return "delivered"
	case Failed:
		return "failed"
	case Looped:
		return "looped"
	}
	return "unknown"
}

// snapshot is the loop detector's record of one visit to an input port on
// a cycle: the packet's memory (sealed) and the context's domain stores as
// they stood, both frozen. prev is the path's previous snapshot, so a
// path's snapshots are a list, newest first, that its forks share.
type snapshot struct {
	at   *port
	prev *snapshot
	mem  memory.Mem
	doms solver.Domains
}

// trail is an immutable singly-linked list holding an append-only sequence
// newest-first. Appending is O(1) and clones share the whole prefix, so
// per-path histories and traces cost nothing to fork; slices are
// materialized once, when a finished path is turned into a Path.
type trail[T any] struct {
	v    T
	prev *trail[T]
	n    int // length including v
}

func (t *trail[T]) push(v T) *trail[T] {
	return &trail[T]{v: v, prev: t, n: t.len() + 1}
}

// len is the sequence's length; a nil trail is empty.
func (t *trail[T]) len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// render materializes the sequence oldest-first, each value through f; nil
// stays nil.
func render[T, U any](t *trail[T], f func(T) U) []U {
	if t == nil {
		return nil
	}
	out := make([]U, t.n)
	for i := t.n - 1; t != nil; t = t.prev {
		out[i] = f(t.v)
		i--
	}
	return out
}

// state is one execution path: a symbolic packet plus its constraint
// context, location and history. The engine clones states on If and Fork;
// every component — packet memory, solver context, history, trace,
// loop-detection snapshots — is a persistent structure, so clone is O(1)
// no matter how much state the path has accumulated.
type state struct {
	Mem  *memory.Mem
	Ctx  *solver.Context
	Here *port

	Status  Status
	FailMsg string

	// hist is the port-visit history, shared-prefix across forks.
	hist *trail[*port]
	// trace records executed instructions when tracing is on.
	trace   *trail[string]
	traceOn bool

	// outPorts is set when input-port code executed Forward/Fork; it lists
	// the output ports the packet leaves through.
	outPorts []int

	// seen is the newest of the path's loop-detection snapshots.
	seen *snapshot

	hops int
}

// pushHistory appends a port visit in O(1).
func (st *state) pushHistory(p *port) { st.hist = st.hist.push(p) }

// pushTrace appends a trace line in O(1) (no-op unless tracing).
func (st *state) pushTrace(line string) {
	if st.traceOn {
		st.trace = st.trace.push(line)
	}
}

// forkBox is the storage one fork allocates for the two headers it copies.
// A finished Path keeps both, so one box costs it nothing extra. The state
// stays outside: it dies when its path finishes, and inside the box it would
// live on as long as the Path. A departure whose port guards refute the
// packet boxes its memory and context once for every refuted port's path.
type forkBox struct {
	mem memory.Mem
	ctx solver.Context
}

// box copies st's memory and context into a new box.
func (st *state) box() *forkBox {
	b := new(forkBox)
	st.Mem.CloneInto(&b.mem)
	st.Ctx.CloneInto(&b.ctx)
	return b
}

// clone duplicates the path state: a constant-size header copy, since every
// component is persistent or copy-on-write. The engine clones only for a
// branch or an output port that Context.Refutes could not rule out; a
// refuted one is counted (and, at a port, recorded) without a state.
func (st *state) clone() *state {
	n := *st
	b := st.box()
	n.Mem, n.Ctx = &b.mem, &b.ctx
	if st.outPorts != nil {
		n.outPorts = append([]int(nil), st.outPorts...)
	}
	return &n
}

// leave returns the state a departure through one of st's ports continues
// on: st itself for the last port, a clone for every other.
func (st *state) leave(last bool) *state {
	if last {
		return st
	}
	return st.clone()
}

// leaving is leave, positioned at the output port out.
func (st *state) leaving(last bool, out *port) *state {
	s := st.leave(last)
	s.Here = out
	s.pushHistory(out)
	return s
}

func (st *state) fail(msg string) {
	st.Status = Failed
	st.FailMsg = msg
}

func (st *state) forwarding() bool { return len(st.outPorts) > 0 }

// Path is a finished execution path as reported to callers.
type Path struct {
	ID      int
	Status  Status
	FailMsg string
	Trace   []string
	// Mem is the packet as the path left it, sealed: clone it to write.
	// The failed paths of output ports whose guards refuted one departure
	// share one Mem; nothing outside core writes it.
	Mem *memory.Mem
	// ctx is the path's solver context, or, when guard is set, that of the
	// departure guard refuted, shared by its refuted ports' paths (see Ctx).
	ctx   *solver.Context
	guard expr.Cond

	// hist is the port-visit trail, newest-first and shared-prefix with
	// sibling paths. It is materialized on demand: most callers (batch
	// reachability, benchmarks) never read full histories, and eager
	// materialization was ~25% of fork-heavy runtime.
	hist *trail[*port]
}

// Ctx returns the path's solver context. For a path whose output-port guard
// refuted its departure it is built on each call, as the departing context
// plus Add(guard), whose count goes to nothing shared: the run has ended.
func (p *Path) Ctx() *solver.Context {
	if p.guard == nil {
		return p.ctx
	}
	c := p.ctx.CloneInto(new(solver.Context))
	c.Add(p.guard)
	return c
}

// CtxFp returns Ctx().Fingerprint() without building the context.
func (p *Path) CtxFp() expr.Fp {
	fp := p.ctx.Fingerprint()
	if p.guard != nil && !p.ctx.Unsat() {
		fp = fp.Chain(expr.HashCond(p.guard))
	}
	return fp
}

// History returns the port-visit history, oldest first, rendered from the
// port records the trail points at. The slice is built per call (callers
// that iterate repeatedly should hold on to it); Last answers the common
// question without materializing.
func (p *Path) History() []PortRef { return render(p.hist, (*port).ref) }

// Last returns the final port the path visited, in O(1).
func (p *Path) Last() PortRef {
	if p.hist == nil {
		return PortRef{}
	}
	return p.hist.v.ref()
}

// HistoryTree numbers the distinct port visits of paths — the nodes of the
// history trail their forks share — so the histories can be shipped or
// stored at the size of the tree rather than the sum of their lengths.
// Node k is a visit to ports[k] after node parent[k] (-1: a first visit),
// with parent[k] < k. leaf[i] is the node paths[i] ended on (-1: an empty
// history), and the ports on the parent chain from it, read root first, are
// paths[i].History(). No history is materialized along the way.
func HistoryTree(paths []*Path) (parent []int32, ports []PortRef, leaf []int32) {
	ids := make(map[*trail[*port]]int32)
	leaf = make([]int32, len(paths))
	var fresh []*trail[*port]
	for i, p := range paths {
		// Climb to the first node already numbered (or past the root),
		// then number the climbed nodes root side first.
		fresh = fresh[:0]
		up := int32(-1)
		for t := p.hist; t != nil; t = t.prev {
			if id, ok := ids[t]; ok {
				up = id
				break
			}
			fresh = append(fresh, t)
		}
		for j := len(fresh) - 1; j >= 0; j-- {
			id := int32(len(ports))
			ids[fresh[j]] = id
			parent = append(parent, up)
			ports = append(ports, fresh[j].v.ref())
			up = id
		}
		leaf[i] = up
	}
	return parent, ports, leaf
}

// HistoryPorts yields the port of every node of paths' history tree once:
// each path's history newest first, stopping where it joins a history
// already walked. It is HistoryTree's node set without its numbering, so
// it builds one pointer set and materializes no history.
func HistoryPorts(paths []*Path) iter.Seq[PortRef] {
	return func(yield func(PortRef) bool) {
		seen := make(map[*trail[*port]]struct{})
		for _, p := range paths {
			for t := p.hist; t != nil; t = t.prev {
				if _, ok := seen[t]; ok {
					break
				}
				seen[t] = struct{}{}
				if !yield(t.v.ref()) {
					return
				}
			}
		}
	}
}

// RunStats summarizes a run.
type RunStats struct {
	Paths     int
	Delivered int
	Failed    int
	Looped    int
	Pruned    int // infeasible If branches discarded
	Hops      int // total port visits
	Symbols   int // fresh symbols the run allocated
	Solver    solver.Stats
}

// Result is the outcome of a symbolic-execution run.
type Result struct {
	Paths []*Path
	Stats RunStats
	// Alloc is the run's own symbol allocator, left where the run stopped:
	// Fresh on it mints follow-up query symbols that cannot collide with
	// path state. The number of symbols the run itself used is
	// Stats.Symbols.
	Alloc *expr.Alloc
}

// DeliveredAt returns delivered paths whose final position is the given
// element (any port when port < 0; matches both input and output sides).
func (r *Result) DeliveredAt(elem string, port int) []*Path {
	var out []*Path
	for _, p := range r.Paths {
		if p.Status != Delivered {
			continue
		}
		last := p.Last()
		if last.Elem != elem {
			continue
		}
		if port >= 0 && last.Port != port {
			continue
		}
		out = append(out, p)
	}
	return out
}

// ByStatus returns all paths with the given status.
func (r *Result) ByStatus(s Status) []*Path {
	var out []*Path
	for _, p := range r.Paths {
		if p.Status == s {
			out = append(out, p)
		}
	}
	return out
}
