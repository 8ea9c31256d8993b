package prog

// White-box tests of the summary builder: verdicts (what summarizes, and the
// node budget's byte-stable reason for what does not), the decision-DAG
// shape (rows multiply across branches while shared continuations keep the
// node count linear), the degenerate empty row, and the lazy render cache.

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
// op, continuing at the code after it.
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
