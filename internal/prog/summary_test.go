package prog

// White-box tests of the summary builder and its wire form: verdicts (what
// summarizes, what falls back and why — with byte-stable reasons), the
// decision-DAG shape (rows multiply across branches while shared
// continuations keep the node count linear), the degenerate empty row, and
// decode round-trips plus byte-stable malformed-stream errors matching the
// program codec's conventions.

import (
	"fmt"
	"testing"

	"symnet/internal/sefl"
)

var (
	sumF0 = sefl.Hdr{Off: sefl.Off{Rel: 0}, Size: 32, Name: "F0"}
	sumF1 = sefl.Hdr{Off: sefl.Off{Rel: 32}, Size: 32, Name: "F1"}
)

func compileSum(ins sefl.Instr) *Program {
	return Compile(ins, "e", 0, "e.in[0]")
}

func TestSummarizeStraightLine(t *testing.T) {
	p := compileSum(sefl.Seq(
		sefl.Assign{LV: sumF0, E: sefl.C(1)},
		sefl.Forward{Port: 3},
	))
	s := Summarize(p)
	if !s.OK() {
		t.Fatalf("unsummarizable: %s", s.Reason)
	}
	if s.Rows() != 1 || len(s.Nodes) != 1 {
		t.Fatalf("Rows=%d Nodes=%d, want 1/1", s.Rows(), len(s.Nodes))
	}
	if s.Steps() != 2 {
		t.Fatalf("Steps=%d, want 2", s.Steps())
	}
	last := p.Ops[s.Nodes[s.Root()].Hi-1]
	if last.Kind != OpForward || len(last.Ports) != 1 || last.Ports[0] != 3 {
		t.Fatalf("terminal step: kind=%d Ports=%v, want Forward [3]", last.Kind, last.Ports)
	}
}

// TestSummarizeEmptyRow pins the degenerate case of the row-set
// generalization: a program with no operations summarizes to a single empty
// row (no guards, no rewrites, no successor ports).
func TestSummarizeEmptyRow(t *testing.T) {
	p := compileSum(sefl.Block{})
	s := Summarize(p)
	if !s.OK() {
		t.Fatalf("unsummarizable: %s", s.Reason)
	}
	if root := s.Nodes[s.Root()]; s.Rows() != 1 || s.Steps() != 0 || root.Term != TermEnd {
		t.Fatalf("Rows=%d Steps=%d Term=%d, want one empty TermEnd row", s.Rows(), s.Steps(), root.Term)
	}
}

// TestSummarizeSharedContinuations pins the DAG sharing that keeps
// summaries small: k sequential branches yield 2^k guarded rows but only
// O(k) nodes, because both arms of every branch jump to one shared
// continuation node.
func TestSummarizeSharedContinuations(t *testing.T) {
	const k = 8
	var is []sefl.Instr
	for i := 0; i < k; i++ {
		is = append(is, sefl.If{
			C:    sefl.Eq(sefl.Ref{LV: sumF0}, sefl.C(uint64(i))),
			Then: sefl.Assign{LV: sumF1, E: sefl.C(uint64(i))},
			Else: sefl.NoOp{},
		})
	}
	is = append(is, sefl.Forward{Port: 0})
	s := Summarize(compileSum(sefl.Seq(is...)))
	if !s.OK() {
		t.Fatalf("unsummarizable: %s", s.Reason)
	}
	if want := int64(1) << k; s.Rows() != want {
		t.Fatalf("Rows=%d, want %d", s.Rows(), want)
	}
	if len(s.Nodes) > 6*k {
		t.Fatalf("Nodes=%d for %d sequential branches — continuations are not shared", len(s.Nodes), k)
	}
}

// TestSummarizeFor pins the For node: a For loop is a TermFor node at its
// op, continuing at the code after it, and counts as a mint site and a branch
// point — so a For followed by two more mint sites is refused.
func TestSummarizeFor(t *testing.T) {
	loop := sefl.For{Pattern: "^m", Body: func(k sefl.Meta) sefl.Instr {
		return sefl.Assign{LV: k, E: sefl.C(1)}
	}}
	p := compileSum(sefl.Seq(loop, sefl.Forward{Port: 0}))
	s := Summarize(p)
	if !s.OK() {
		t.Fatalf("For loop unsummarizable: %s", s.Reason)
	}
	root := s.Nodes[s.Root()]
	if root.Term != TermFor || p.Ops[root.Hi].Kind != OpFor || root.Lo != root.Hi {
		t.Fatalf("root %+v, want a TermFor node on the For op", root)
	}
	if next := s.Nodes[root.Next]; next.Term != TermEnd || p.Ops[next.Lo].Kind != OpForward {
		t.Fatalf("continuation %+v, want the Forward as a TermEnd row", next)
	}
	if s.Rows() != 1 {
		t.Fatalf("Rows=%d, want 1", s.Rows())
	}

	// One mint after the For replays in sibling order either way...
	mint := func(name string) sefl.Instr { return sefl.Assign{LV: sumF1, E: sefl.Symbolic{W: 32, Name: name}} }
	if s := Summarize(compileSum(sefl.Seq(loop, mint("a"), sefl.Forward{Port: 0}))); !s.OK() {
		t.Fatalf("For with one mint site after it should summarize: %s", s.Reason)
	}
	// ...two do not.
	s = Summarize(compileSum(sefl.Seq(loop, mint("a"), mint("b"), sefl.Forward{Port: 0})))
	if s.OK() {
		t.Fatal("For followed by two mint sites summarized")
	}
	if s.Reason != reasonContMints {
		t.Fatalf("reason = %q", s.Reason)
	}
}

// TestSummarizeMintOrdering pins the fresh-symbol rule. The IR runs a
// branch's continuation op-major over the sibling states, a summary runs it
// state-major: the two mint in the same order when the continuation has at
// most one mint site and, if it has one, the Else arm mints nothing.
func TestSummarizeMintOrdering(t *testing.T) {
	cond := sefl.Eq(sefl.Ref{LV: sumF0}, sefl.C(7))
	mint := func(name string) sefl.Instr { return sefl.Assign{LV: sumF1, E: sefl.Symbolic{W: 32, Name: name}} }

	accept := []struct {
		name string
		code sefl.Instr
	}{
		// One state executes an arm's mint, in the same position either way.
		{"mint inside a branch arm", sefl.Seq(
			sefl.If{C: cond, Then: mint("s"), Else: sefl.NoOp{}},
			sefl.Forward{Port: 0},
		)},
		// Straight-line mints before any branch replay in order.
		{"mint before the branch", sefl.Seq(
			mint("s"),
			sefl.If{C: cond, Then: sefl.Forward{Port: 0}, Else: sefl.Forward{Port: 1}},
		)},
		// One site downstream: every sibling mints there, in sibling order.
		{"one mint site downstream", sefl.Seq(
			sefl.If{C: cond, Then: sefl.Assign{LV: sumF1, E: sefl.C(1)}, Else: sefl.NoOp{}},
			mint("s"),
			sefl.Forward{Port: 0},
		)},
		// The same through a condition: constraining on a fresh symbol mints.
		{"one condition mint downstream", sefl.Seq(
			sefl.If{C: cond, Then: sefl.NoOp{}, Else: sefl.NoOp{}},
			sefl.Constrain{C: sefl.Eq(sefl.Symbolic{W: 32, Name: "s"}, sefl.C(3))},
			sefl.Forward{Port: 0},
		)},
		// A Then-arm mint precedes the continuation's in both orders.
		{"then-arm mint and one downstream", sefl.Seq(
			sefl.If{C: cond, Then: mint("t"), Else: sefl.NoOp{}},
			mint("s"),
			sefl.Forward{Port: 0},
		)},
	}
	for _, tc := range accept {
		if s := Summarize(compileSum(tc.code)); !s.OK() {
			t.Errorf("%s: should summarize: %s", tc.name, s.Reason)
		}
	}

	refuse := []struct {
		name, reason string
		code         sefl.Instr
	}{
		{"two mint sites downstream", reasonContMints, sefl.Seq(
			sefl.If{C: cond, Then: sefl.Assign{LV: sumF1, E: sefl.C(1)}, Else: sefl.NoOp{}},
			mint("a"),
			mint("b"),
			sefl.Forward{Port: 0},
		)},
		// The IR mints the Else arm's symbol before the Then sibling reaches
		// the continuation's site; a summary mints it after.
		{"else-arm mint and one downstream", reasonElseMint, sefl.Seq(
			sefl.If{C: cond, Then: sefl.NoOp{}, Else: mint("e")},
			mint("s"),
			sefl.Forward{Port: 0},
		)},
	}
	for _, tc := range refuse {
		s := Summarize(compileSum(tc.code))
		if s.OK() {
			t.Errorf("%s: summarized", tc.name)
		} else if s.Reason != tc.reason {
			t.Errorf("%s: reason = %q, want %q", tc.name, s.Reason, tc.reason)
		}
	}
}

func TestSummarizeNodeBudget(t *testing.T) {
	// Sequential branches with *distinct* trailing code defeat continuation
	// sharing enough to stay linear but large: push past the node budget
	// with sheer program size.
	var is []sefl.Instr
	for i := 0; i < maxSummaryNodes; i++ {
		is = append(is, sefl.If{
			C:    sefl.Eq(sefl.Ref{LV: sumF0}, sefl.C(uint64(i))),
			Then: sefl.Assign{LV: sumF1, E: sefl.C(uint64(i))},
			Else: sefl.NoOp{},
		})
	}
	is = append(is, sefl.Forward{Port: 0})
	s := Summarize(compileSum(sefl.Seq(is...)))
	if s.OK() {
		t.Fatal("budget-busting program summarized")
	}
	if want := fmt.Sprintf("decision DAG exceeds %d nodes", maxSummaryNodes); s.Reason != want {
		t.Fatalf("reason = %q, want %q", s.Reason, want)
	}
}

// TestSummaryRenderCacheIsLazy pins the resident-size design: trace lines
// and failure messages are cached per summary, but the cache only exists
// once something rendered.
func TestSummaryRenderCacheIsLazy(t *testing.T) {
	p := compileSum(sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sumF0}, sefl.C(1))},
		sefl.Forward{Port: 0},
	))
	s := Summarize(p)
	if s.renders.Load() != nil {
		t.Fatal("a fresh summary already holds a render cache")
	}
	msg := s.ConstrainFailMsg(0)
	if want := fmt.Sprintf("constraint unsatisfiable: %s", p.Ops[0].Ins.(sefl.Constrain).C); msg != want {
		t.Fatalf("fail message %q, want %q", msg, want)
	}
	if line, want := s.TraceLine(1), fmt.Sprintf("e: %s", p.Ops[1].Ins); line != want {
		t.Fatalf("trace line %q, want %q", line, want)
	}
	if s.ConstrainFailMsg(0) != msg || s.renders.Load() == nil {
		t.Fatal("renders are not cached")
	}
}
