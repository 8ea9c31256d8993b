// Per-element summaries: the compiled IR of an element-port program is
// pre-walked once into a decision DAG of guarded update rows — every
// root-to-leaf path is one row: the conjunction of branch guards along the
// way, the ordered field rewrites (the linear ops) it performs, and the
// terminator (successor ports, failure, or plain delivery). The engine then
// applies the DAG per visit instead of dispatching the IR segment machinery:
// one tight loop over runs of linear ops, with the per-visit work the IR
// path pays (successor-port slices, constraint-failure renders, trace
// lines) done once and shared by every visit. This generalizes the
// expr.SpanTable lowering of PR 5 — a span table is the special case of a
// guard row set with no rewrites — to full transfer functions, the
// compositional-summary construction the symbolic-execution literature
// prescribes for path-explosion-by-revisit. A For loop, whose iteration
// space is runtime metadata, is a node of its own (TermFor): it runs its
// bodies exactly as the IR does and continues every state it yields.
//
// Summaries are observationally identical to IR execution by construction:
// every step executes through the same evaluators (EvalExpr/EvalCond), the
// same solver calls in the same per-path order, and renders the same
// strings, and the walk runs sibling states in the IR's order, state-major
// (each successor of an If or For runs the rest of the program before the
// next sibling starts), so fresh symbols are minted in the same order too.
// Summarize refuses (verdict "unsummarizable") only a program whose DAG
// overflows the node budget; such a program falls back to the IR path,
// preserving exact semantics, and the differential property tests pin
// byte-identity across both verdicts.
package prog

import (
	"fmt"
	"sync/atomic"

	"symnet/internal/sefl"
)

// maxSummaryNodes bounds the decision DAG. Continuations are shared across
// branches (memoized by program counter and continuation stack), so real
// models stay tiny; the cap is a backstop against pathological nesting where
// distinct continuation stacks defeat sharing. Programs over the budget get
// the unsummarizable verdict and run on the IR path.
const maxSummaryNodes = 4096

// TermKind is how a SumNode ends.
type TermKind uint8

const (
	// TermEnd finishes the row: the state leaves with whatever the steps
	// established (output ports, failure, or plain delivery).
	TermEnd TermKind = iota
	// TermJump continues at Next — the join point where branch rows share
	// their common continuation.
	TermJump
	// TermBranch forks on the guard of the OpIf at Hi: the clone takes C
	// into Then, the original takes ¬C into Else, infeasible successors are
	// pruned — byte-for-byte the IR's OpIf discipline.
	TermBranch
	// TermFor runs the OpFor at Hi exactly as the IR does — bodies through
	// the IR, state-major over the states they fork — then continues every
	// resulting state, in order, at Next.
	TermFor
)

// SumNode is one node of the decision DAG: a run of linear steps followed by
// a terminator. The steps are the ops Prog.Ops[Lo:Hi] — the walk only ever
// collects consecutive linear ops of one segment, so a node needs no step
// list of its own — and Then/Else/Next index Summary.Nodes.
type SumNode struct {
	Lo, Hi     int32
	Term       TermKind
	Then, Else int32 // TermBranch
	Next       int32 // TermJump, TermFor
}

// Summary is the summarization verdict of one element-port program: its
// compiled transfer function, or the reason it has none. It is immutable
// after construction (the render cache is a concurrency-safe memo) and
// shared read-only across workers, like the program it summarizes.
type Summary struct {
	Prog *Program
	// Nodes is the DAG in one slab, children before parents, so the root is
	// the last node. It is empty when the program is unsummarizable.
	Nodes []SumNode
	// Reason says why an unsummarizable program has to run on the IR path.
	Reason string

	renders atomic.Pointer[[]atomic.Pointer[string]]
}

// OK reports whether the program has a summary to apply.
func (s *Summary) OK() bool { return len(s.Nodes) > 0 }

// Root is the index of the DAG's root node.
func (s *Summary) Root() int32 { return int32(len(s.Nodes) - 1) }

// Steps counts the linear steps over all nodes.
func (s *Summary) Steps() int {
	n := 0
	for i := range s.Nodes {
		n += int(s.Nodes[i].Hi - s.Nodes[i].Lo)
	}
	return n
}

// Rows counts the guarded update rows: the root-to-leaf paths of the DAG
// (the span-table generalization's row count). Children precede parents, so
// one pass in slab order has every child's count ready.
func (s *Summary) Rows() int64 {
	if !s.OK() {
		return 0
	}
	rows := make([]int64, len(s.Nodes))
	for i, n := range s.Nodes {
		switch n.Term {
		case TermEnd:
			rows[i] = 1
		case TermJump, TermFor:
			rows[i] = rows[n.Next]
		case TermBranch:
			rows[i] = rows[n.Then] + rows[n.Else]
		}
	}
	return rows[s.Root()]
}

// render returns the string cached in the given slot, calling mk to fill it
// on first use. The slots (a trace line and a failure message per op) are
// allocated on the first render, so a summary that never traces and never
// fails a constraint holds none. Renders are pure functions of the
// instruction, so racing stores are benign: every winner writes the same
// bytes.
func (s *Summary) render(slot int, mk func() string) string {
	if s.renders.Load() == nil {
		fresh := make([]atomic.Pointer[string], 2*len(s.Prog.Ops))
		s.renders.CompareAndSwap(nil, &fresh)
	}
	cell := &(*s.renders.Load())[slot]
	if p := cell.Load(); p != nil {
		return *p
	}
	str := mk()
	cell.Store(&str)
	return str
}

// TraceLine returns the trace line of the op at index i (a step, or the
// OpIf or OpFor a node ends with), rendered once and shared by every visit.
func (s *Summary) TraceLine(i int32) string {
	return s.render(2*int(i), func() string {
		return fmt.Sprintf("%s: %s", s.Prog.Elem, s.Prog.Ops[i].Ins)
	})
}

// ConstrainFailMsg returns the failure message of the OpConstrain at index
// i, rendered once. The IR path renders this per failing visit — for
// table-wide egress guards that is the whole forwarding table per visit — so
// the once-per-op render is the summary layer's headline win.
func (s *Summary) ConstrainFailMsg(i int32) string {
	return s.render(2*int(i)+1, func() string {
		return fmt.Sprintf("constraint unsatisfiable: %s", s.Prog.Ops[i].Ins.(sefl.Constrain).C)
	})
}

// Summarize pre-walks a compiled program into its summary. The verdict is
// unsummarizable (no nodes, Reason set) when the DAG overflows the node
// budget.
func Summarize(p *Program) *Summary {
	b := &sumBuilder{p: p}
	b.node(p.Entry, p.Seg(p.Entry).Lo, nil)
	if b.reason != "" {
		return &Summary{Prog: p, Reason: b.reason}
	}
	return &Summary{Prog: p, Nodes: b.nodes}
}

// sumFrame is one continuation-stack frame of the pre-walk: execution
// resumes at (seg, idx) when the nested segment below it finishes. Frames
// are hash-consed (same resume point + same tail = same frame), which is
// what lets the node memo share join points by pointer identity.
type sumFrame struct {
	seg  SegID
	idx  int32
	next *sumFrame
}

// sumKey identifies a walk position: program counter plus continuation.
type sumKey struct {
	seg   SegID
	idx   int32
	stack *sumFrame
}

// sumBuilder carries one pre-walk. Its maps are made on first write: most
// port programs are a single straight-line segment and never need them.
type sumBuilder struct {
	p       *Program
	nodes   []SumNode
	memo    map[sumKey]int32
	frames  map[sumKey]*sumFrame
	started int
	reason  string
}

// push returns the hash-consed continuation frame resuming at (seg, idx).
func (b *sumBuilder) push(seg SegID, idx int32, next *sumFrame) *sumFrame {
	key := sumKey{seg: seg, idx: idx, stack: next}
	if f, ok := b.frames[key]; ok {
		return f
	}
	if b.frames == nil {
		b.frames = make(map[sumKey]*sumFrame)
	}
	f := &sumFrame{seg: seg, idx: idx, next: next}
	b.frames[key] = f
	return f
}

// node walks the program from (seg, idx) under the given continuation and
// returns the index of the summary node covering it, memoized so join
// points (the code after an If, shared by both branches) build once and are
// shared. A node joins the slab after its children, which is the order
// Rows relies on; the program is a DAG, so the walk never re-enters a
// position it has not finished. The result is meaningless once b.reason is
// set.
func (b *sumBuilder) node(seg SegID, idx int32, stack *sumFrame) int32 {
	if b.reason != "" {
		return 0
	}
	key := sumKey{seg: seg, idx: idx, stack: stack}
	if n, ok := b.memo[key]; ok {
		return n
	}
	if b.started >= maxSummaryNodes {
		b.reason = fmt.Sprintf("decision DAG exceeds %d nodes", maxSummaryNodes)
		return 0
	}
	b.started++
	n := SumNode{Lo: idx}
walk:
	for ; ; idx++ {
		n.Hi = idx
		if idx >= b.p.Seg(seg).Hi {
			if stack != nil {
				n.Term = TermJump
				n.Next = b.node(stack.seg, stack.idx, stack.next)
			}
			break
		}
		switch op := &b.p.Ops[idx]; op.Kind {
		case OpFor:
			n.Term = TermFor
			n.Next = b.node(seg, idx+1, stack)
			break walk
		case OpIf:
			cont := b.push(seg, idx+1, stack)
			n.Term = TermBranch
			n.Then = b.node(op.Then, b.p.Seg(op.Then).Lo, cont)
			n.Else = b.node(op.Else, b.p.Seg(op.Else).Lo, cont)
			break walk
		}
	}
	if b.memo == nil {
		b.memo = make(map[sumKey]int32)
	}
	b.nodes = append(b.nodes, n)
	b.memo[key] = int32(len(b.nodes) - 1)
	return b.memo[key]
}
