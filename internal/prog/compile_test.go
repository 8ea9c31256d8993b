package prog

import (
	"fmt"
	"strings"
	"testing"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/sefl"
)

func countOps(p *Program, kind OpKind) int {
	n := 0
	for i := range p.Ops {
		if p.Ops[i].Kind == kind {
			n++
		}
	}
	return n
}

// TestDeadCodeAfterTerminators: ops after an unconditional Fail/Forward/Fork
// are dropped, including across spliced nested blocks, and an If whose
// branches all terminate ends its segment.
func TestDeadCodeAfterTerminators(t *testing.T) {
	p := Compile(sefl.Seq(
		sefl.Assign{LV: sefl.Meta{Name: "a"}, E: sefl.C(1)},
		sefl.Forward{Port: 0},
		sefl.Assign{LV: sefl.Meta{Name: "dead"}, E: sefl.C(2)},
		sefl.Fail{Msg: "dead"},
	), "e", 0, "t")
	if got := len(p.Ops); got != 2 {
		t.Fatalf("ops after DCE = %d, want 2:\n%s", got, p)
	}

	p = Compile(sefl.Seq(
		sefl.If{C: sefl.Eq(sefl.Ref{LV: sefl.Meta{Name: "k"}}, sefl.C(1)),
			Then: sefl.Forward{Port: 0},
			Else: sefl.Fail{Msg: "no"}},
		sefl.Assign{LV: sefl.Meta{Name: "dead"}, E: sefl.C(2)},
	), "e", 0, "t")
	if n := countOps(p, OpAssign); n != 0 {
		t.Fatalf("assign after always-terminating If survived DCE:\n%s", p)
	}
	if !p.Segs[p.Entry].Terminates {
		t.Fatalf("entry segment should be marked terminating:\n%s", p)
	}

	// A nested block behind the terminator is dead too.
	p = Compile(sefl.Seq(
		sefl.Fail{Msg: "stop"},
		sefl.Seq(sefl.NoOp{}, sefl.NoOp{}),
	), "e", 0, "t")
	if got := len(p.Ops); got != 1 {
		t.Fatalf("ops after DCE = %d, want 1:\n%s", got, p)
	}
}

// TestStaticFolding: conditions and expressions without packet reads fold
// at compile time to exactly what runtime evaluation would produce.
func TestStaticFolding(t *testing.T) {
	p := Compile(sefl.Seq(
		sefl.Constrain{C: sefl.Lt(sefl.CW(3, 16), sefl.CW(5, 16))},
		sefl.Assign{LV: sefl.Hdr{Off: sefl.Off{Rel: 0}, Size: 32}, E: sefl.Add{A: sefl.C(40), B: sefl.C(2)}},
		sefl.Forward{Port: 0},
	), "e", 0, "t")
	c := p.Ops[0].C
	if !c.HasStatic || c.StaticErr != "" {
		t.Fatalf("static comparison not folded: %+v", c)
	}
	if b, ok := c.Static.(expr.Bool); !ok || !bool(b) {
		t.Fatalf("folded value = %v, want true", c.Static)
	}
	e := p.Ops[1].E
	if e.Folded == nil {
		t.Fatalf("constant assign expression not folded:\n%s", p)
	}
	if v, ok := e.Folded.ConstVal(); !ok || v != 42 || e.Folded.Width != 32 {
		t.Fatalf("folded = %v, want 42:w32", e.Folded)
	}

	// A static condition whose evaluation errors folds to that error.
	p = Compile(sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.CW(256, 16), sefl.CW(1, 8))},
		sefl.Forward{Port: 0},
	), "e", 0, "t")
	c = p.Ops[0].C
	if !c.HasStatic || !strings.Contains(c.StaticErr, "does not fit in") {
		t.Fatalf("static error not folded: %+v", c)
	}
}

// TestLValueResolution: metadata binds its instance at compile time and
// tag-free offsets are absolute.
func TestLValueResolution(t *testing.T) {
	p := Compile(sefl.Seq(
		sefl.Assign{LV: sefl.Meta{Name: "g"}, E: sefl.C(1)},
		sefl.Assign{LV: sefl.Meta{Name: "l", Local: true}, E: sefl.C(2)},
		sefl.Assign{LV: sefl.Meta{Name: "p", Instance: 9, Pinned: true}, E: sefl.C(3)},
		sefl.Assign{LV: sefl.Hdr{Off: sefl.Off{Rel: 96}, Size: 32}, E: sefl.C(4)},
		sefl.Assign{LV: sefl.Hdr{Off: sefl.FromTag("L3", 16), Size: 16}, E: sefl.C(5)},
		sefl.Forward{Port: 0},
	), "e", 7, "t")
	wantKeys := []memory.MetaKey{
		{Name: "g", Instance: memory.GlobalScope},
		{Name: "l", Instance: 7},
		{Name: "p", Instance: 9},
	}
	for i, want := range wantKeys {
		if got := p.Ops[i].LV.Key; got != want {
			t.Fatalf("op %d key = %v, want %v", i, got, want)
		}
	}
	if lv := p.Ops[3].LV; !lv.IsHdr || lv.Tag != "" || lv.Rel != 96 || lv.Size != 32 {
		t.Fatalf("absolute header LV = %+v", lv)
	}
	if lv := p.Ops[4].LV; !lv.IsHdr || lv.Tag != "L3" || lv.Rel != 16 {
		t.Fatalf("tagged header LV = %+v", lv)
	}
}

// TestForkIsMultiSuccessorTerminator and bad For patterns compile to
// runtime-failing ops rather than compile errors.
func TestTerminatorsAndBadPattern(t *testing.T) {
	p := Compile(sefl.Seq(
		sefl.Fork{Ports: []int{0, 2, 4}},
	), "e", 0, "t")
	if p.Ops[0].Kind != OpFork || len(p.Ops[0].Ports) != 3 {
		t.Fatalf("fork op = %+v", p.Ops[0])
	}
	if !p.Segs[p.Entry].Terminates {
		t.Fatal("fork must terminate its segment")
	}

	p = Compile(sefl.For{Pattern: "(", Body: func(k sefl.Meta) sefl.Instr { return sefl.NoOp{} }},
		"e", 0, "t")
	if p.Ops[0].Kind != OpFor || p.Ops[0].For.Re != nil || p.Ops[0].For.Err == "" {
		t.Fatalf("bad pattern op = %+v", p.Ops[0])
	}
}

// TestSpliceAnalysis: every block splices into its parent segment, a
// Symbolic-bearing one behind a fork included — the executors run siblings
// state-major, so a block boundary is not observable.
func TestSpliceAnalysis(t *testing.T) {
	block := sefl.Seq(
		sefl.Assign{LV: sefl.Meta{Name: "b"}, E: sefl.Symbolic{W: 8}},
		sefl.Assign{LV: sefl.Meta{Name: "c"}, E: sefl.C(2)},
	)
	// No fork before the nested block: one segment.
	p := Compile(sefl.Seq(
		sefl.Assign{LV: sefl.Meta{Name: "a"}, E: sefl.C(1)},
		block,
		sefl.Forward{Port: 0},
	), "e", 0, "t")
	if len(p.Segs) != 1 || len(p.Ops) != 4 {
		t.Fatalf("block after straight-line code must splice:\n%s", p)
	}

	// Behind a fork: the entry segment holds the If and the spliced block,
	// and the If's two arms are the only other segments.
	p = Compile(sefl.Seq(
		sefl.If{C: sefl.CBool(true), Then: sefl.NoOp{}, Else: sefl.NoOp{}},
		block,
		sefl.Forward{Port: 0},
	), "e", 0, "t")
	if entry := p.Seg(p.Entry); len(p.Segs) != 3 || entry.Hi-entry.Lo != 4 {
		t.Fatalf("symbolic block behind a fork must splice:\n%s", p)
	}
}

// TestSegmentContinuations pins link on the tree of segments the compiler
// emits: an arm resumes right after its If, the arm of an If that ends its
// segment resumes where that segment resumes, and the entry leaves the
// program.
func TestSegmentContinuations(t *testing.T) {
	f := sefl.Ref{LV: sefl.Hdr{Off: sefl.Off{Rel: 0}, Size: 32, Name: "F"}}
	p := Compile(sefl.Seq(
		sefl.If{
			C:    sefl.Eq(f, sefl.C(1)),
			Then: sefl.If{C: sefl.Eq(f, sefl.C(2)), Then: sefl.NoOp{}, Else: sefl.NoOp{}},
			Else: sefl.NoOp{},
		},
		sefl.Forward{Port: 0},
	), "e", 0, "t")
	if _, _, ok := p.Cont(p.Entry); ok {
		t.Fatalf("the entry segment resumes somewhere:\n%s", p)
	}
	entry := p.Seg(p.Entry)
	outer := &p.Ops[entry.Lo]
	inner := &p.Ops[p.Seg(outer.Then).Lo]
	if outer.Kind != OpIf || inner.Kind != OpIf || p.Seg(outer.Then).Hi != p.Seg(outer.Then).Lo+1 {
		t.Fatalf("test premise: want an If whose Then arm is one If:\n%s", p)
	}
	for _, arm := range []SegID{outer.Then, outer.Else, inner.Then, inner.Else} {
		if seg, idx, ok := p.Cont(arm); !ok || seg != p.Entry || idx != entry.Lo+1 {
			t.Errorf("seg%d resumes at seg%d op %d (ok %v), want seg%d op %d:\n%s", arm, seg, idx, ok, p.Entry, entry.Lo+1, p)
		}
	}
}

// TestProgramRenderCacheIsLazy pins the resident-size design: trace lines
// and failure messages are cached per program, but the cache only exists
// once something rendered. A table guard's message renders the span table
// its node asserts, any other condition as written.
func TestProgramRenderCacheIsLazy(t *testing.T) {
	tbl := sefl.Table{F: sefl.IPDst, Rows: []expr.GuardRow{
		{Kind: expr.GuardPrefix, V: 0x0A000000, Len: 8},
		{Kind: expr.GuardPrefix, V: 0x0A050000, Len: 16},
	}}
	p := Compile(sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.C(1))},
		sefl.Constrain{C: tbl},
		sefl.Forward{Port: 0},
	), "e", 0, "e.in[0]")
	if p.renders.Load() != nil {
		t.Fatal("a fresh program already holds a render cache")
	}
	msg := p.ConstrainFailMsg(0)
	if want := fmt.Sprintf("constraint unsatisfiable: %s", p.Ops[0].Ins.(sefl.Constrain).C); msg != want {
		t.Fatalf("fail message %q, want %q", msg, want)
	}
	if got, want := p.ConstrainFailMsg(1), "constraint unsatisfiable: IPDst in {167772160-184549375}:w32"; got != want || UnsatMsg(tbl) != want {
		t.Fatalf("table fail message %q (UnsatMsg %q), want %q", got, UnsatMsg(tbl), want)
	}
	if line, want := p.TraceLine(2), fmt.Sprintf("e: %s", p.Ops[2].Ins); line != want {
		t.Fatalf("trace line %q, want %q", line, want)
	}
	if p.ConstrainFailMsg(0) != msg || p.renders.Load() == nil {
		t.Fatal("renders are not cached")
	}
}
