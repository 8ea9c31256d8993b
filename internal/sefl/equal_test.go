package sefl

import (
	"testing"

	"symnet/internal/expr"
)

// equalSample is codecSample with a table guard, so it holds every
// instruction, expression, condition and l-value variant.
func equalSample() Instr {
	return Seq(codecSample(), Constrain{C: Table{F: IPDst, Rows: []expr.GuardRow{
		{Kind: expr.GuardEq, V: 7},
		{Kind: expr.GuardPrefix, V: 0x0a000000, Len: 8, Excl: []expr.GuardExcl{{V: 0x0a010000, Len: 16}}},
	}}})
}

func TestEqualReflexiveAndThroughTheCodec(t *testing.T) {
	for _, in := range []Instr{equalSample(), NewTCPPacket(), NewUDPPacket(), NewIPPacket()} {
		if !Equal(in, in) {
			t.Fatalf("Equal(x, x) false for %s", in)
		}
		if !Equal(in, Clone(in)) {
			t.Fatalf("Equal(x, Clone(x)) false for %s", in)
		}
		w, err := EncodeInstr(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeInstr(w)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(in, out) || !Equal(out, in) {
			t.Fatalf("Equal(x, DecodeInstr(EncodeInstr(x))) false for %s", in)
		}
	}
}

// TestEqualSeesEveryField changes one field of one node at a time: each
// change must make the programs unequal, both ways round.
func TestEqualSeesEveryField(t *testing.T) {
	h := Hdr{Off: FromTag("L3", 96), Size: 32, Name: "F"}
	m := Meta{Name: "m", Local: true}
	rows := func(mut func([]expr.GuardRow)) Table {
		rs := []expr.GuardRow{{Kind: expr.GuardPrefix, V: 0x0a000000, Len: 8, Excl: []expr.GuardExcl{{V: 0x0a010000, Len: 16}}}}
		if mut != nil {
			mut(rs)
		}
		return Table{F: h, Rows: rs}
	}
	cmp := Cmp{Op: expr.Lt, L: Ref{LV: h}, R: Add{A: TagVal{Tag: "L3", Rel: 8}, B: Num{V: 3, W: 8}}}
	pfx := Prefix{E: Ref{LV: h}, Value: 10, Len: 8, Width: 32}
	base := []struct {
		name string
		a    Instr
		bs   []Instr
	}{
		{"NoOp", NoOp{}, []Instr{Fail{}}},
		{"Allocate", Allocate{LV: h, Size: 32}, []Instr{
			Allocate{LV: h, Size: 16}, Allocate{LV: m, Size: 32}, Deallocate{LV: h, Size: 32},
			Allocate{LV: Hdr{Off: FromTag("L4", 96), Size: 32, Name: "F"}, Size: 32},
			Allocate{LV: Hdr{Off: FromTag("L3", 97), Size: 32, Name: "F"}, Size: 32},
			Allocate{LV: Hdr{Off: FromTag("L3", 96), Size: 16, Name: "F"}, Size: 32},
			Allocate{LV: Hdr{Off: FromTag("L3", 96), Size: 32, Name: "G"}, Size: 32},
		}},
		{"Deallocate", Deallocate{LV: m, Size: 8}, []Instr{
			Deallocate{LV: m, Size: -1},
			Deallocate{LV: Meta{Name: "n", Local: true}, Size: 8},
			Deallocate{LV: Meta{Name: "m"}, Size: 8},
			Deallocate{LV: Meta{Name: "m", Local: true, Instance: 1}, Size: 8},
			Deallocate{LV: Meta{Name: "m", Local: true, Pinned: true}, Size: 8},
		}},
		{"Assign", Assign{LV: h, E: Sub{A: Symbolic{W: 16, Name: "s"}, B: CW(2, 16)}}, []Instr{
			Assign{LV: m, E: Sub{A: Symbolic{W: 16, Name: "s"}, B: CW(2, 16)}},
			Assign{LV: h, E: Add{A: Symbolic{W: 16, Name: "s"}, B: CW(2, 16)}},
			Assign{LV: h, E: Sub{A: Symbolic{W: 8, Name: "s"}, B: CW(2, 16)}},
			Assign{LV: h, E: Sub{A: Symbolic{W: 16, Name: "t"}, B: CW(2, 16)}},
			Assign{LV: h, E: Sub{A: Symbolic{W: 16, Name: "s"}, B: CW(3, 16)}},
			Assign{LV: h, E: Sub{A: Symbolic{W: 16, Name: "s"}, B: C(2)}},
			Assign{LV: h, E: Sub{A: Ref{LV: m}, B: CW(2, 16)}},
		}},
		{"CreateTag", CreateTag{Name: "L4", E: TagVal{Tag: "L3", Rel: 160}}, []Instr{
			CreateTag{Name: "L5", E: TagVal{Tag: "L3", Rel: 160}},
			CreateTag{Name: "L4", E: TagVal{Tag: "L2", Rel: 160}},
			CreateTag{Name: "L4", E: TagVal{Tag: "L3", Rel: 128}},
			DestroyTag{Name: "L4"},
		}},
		{"DestroyTag", DestroyTag{Name: "L4"}, []Instr{DestroyTag{Name: "L3"}}},
		{"Fail", Fail{Msg: "x"}, []Instr{Fail{Msg: "y"}}},
		{"Forward", Forward{Port: 1}, []Instr{Forward{Port: 2}, Fork{Ports: []int{1}}}},
		{"Fork", Fork{Ports: []int{0, 2}}, []Instr{Fork{Ports: []int{0, 3}}, Fork{Ports: []int{0}}, Fork{Ports: []int{0, 2, 4}}}},
		{"Block", Block{Is: []Instr{NoOp{}, Forward{Port: 1}}}, []Instr{
			Block{Is: []Instr{NoOp{}, Forward{Port: 2}}},
			Block{Is: []Instr{NoOp{}}},
			Block{Is: []Instr{NoOp{}, Forward{Port: 1}, NoOp{}}},
		}},
		{"For", NewFor(`^OPT\d+$`, "test.incr", "a"), []Instr{
			NewFor(`^OPT\d$`, "test.incr", "a"),
			NewFor(`^OPT\d+$`, "test.incr", "b"),
			For{Pattern: `^OPT\d+$`, Ref: "test.other", Arg: "a"},
		}},
		{"If", If{C: cmp, Then: Forward{Port: 0}, Else: Fail{Msg: "x"}}, []Instr{
			If{C: pfx, Then: Forward{Port: 0}, Else: Fail{Msg: "x"}},
			If{C: cmp, Then: Forward{Port: 1}, Else: Fail{Msg: "x"}},
			If{C: cmp, Then: Forward{Port: 0}, Else: Fail{Msg: "y"}},
		}},
		{"missing child", If{C: cmp, Else: Constrain{}}, []Instr{
			If{C: cmp, Then: NoOp{}, Else: Constrain{}},
			If{C: cmp, Else: Constrain{C: CBool(true)}},
		}},
		{"Cmp", Constrain{C: cmp}, []Instr{
			Constrain{C: Cmp{Op: expr.Le, L: cmp.L, R: cmp.R}},
			Constrain{C: Cmp{Op: expr.Lt, L: Ref{LV: m}, R: cmp.R}},
			Constrain{C: Cmp{Op: expr.Lt, L: cmp.L, R: Add{A: TagVal{Tag: "L3", Rel: 8}, B: Num{V: 4, W: 8}}}},
			Constrain{C: Cmp{Op: expr.Lt, L: cmp.L, R: Add{A: TagVal{Tag: "L3", Rel: 8}, B: Num{V: 3, W: 16}}}},
			Constrain{C: Cmp{Op: expr.Lt, L: cmp.L, R: Sub{A: TagVal{Tag: "L3", Rel: 8}, B: Num{V: 3, W: 8}}}},
		}},
		{"Prefix", Constrain{C: pfx}, []Instr{
			Constrain{C: Prefix{E: Ref{LV: m}, Value: 10, Len: 8, Width: 32}},
			Constrain{C: Prefix{E: Ref{LV: h}, Value: 11, Len: 8, Width: 32}},
			Constrain{C: Prefix{E: Ref{LV: h}, Value: 10, Len: 9, Width: 32}},
			Constrain{C: Prefix{E: Ref{LV: h}, Value: 10, Len: 8}},
		}},
		{"MetaPresent", Constrain{C: MetaPresent{M: m}}, []Instr{Constrain{C: MetaPresent{M: Meta{Name: "m"}}}}},
		{"TagPresent", Constrain{C: TagPresent{Tag: "L2"}}, []Instr{Constrain{C: TagPresent{Tag: "L3"}}, Constrain{C: MetaPresent{M: m}}}},
		{"CBool", Constrain{C: CBool(true)}, []Instr{Constrain{C: CBool(false)}}},
		{"CNot", Constrain{C: CNot{C: pfx}}, []Instr{Constrain{C: CNot{C: cmp}}, Constrain{C: pfx}}},
		{"CAnd", Constrain{C: CAnd{Cs: []Cond{pfx, cmp}}}, []Instr{
			Constrain{C: COr{Cs: []Cond{pfx, cmp}}},
			Constrain{C: CAnd{Cs: []Cond{cmp, pfx}}},
			Constrain{C: CAnd{Cs: []Cond{pfx}}},
		}},
		{"COr", Constrain{C: COr{Cs: []Cond{pfx, CNot{C: cmp}}}}, []Instr{
			Constrain{C: COr{Cs: []Cond{pfx, CNot{C: pfx}}}},
			Constrain{C: COr{Cs: []Cond{pfx, CNot{C: cmp}, CBool(false)}}},
		}},
		{"Table", Constrain{C: rows(nil)}, []Instr{
			Constrain{C: Table{F: Hdr{Off: FromTag("L3", 96), Size: 32}, Rows: rows(nil).Rows}},
			Constrain{C: rows(func(rs []expr.GuardRow) { rs[0].Kind = expr.GuardEq })},
			Constrain{C: rows(func(rs []expr.GuardRow) { rs[0].V++ })},
			Constrain{C: rows(func(rs []expr.GuardRow) { rs[0].Len++ })},
			Constrain{C: rows(func(rs []expr.GuardRow) { rs[0].Excl[0].V++ })},
			Constrain{C: rows(func(rs []expr.GuardRow) { rs[0].Excl[0].Len++ })},
			Constrain{C: rows(func(rs []expr.GuardRow) { rs[0].Excl = nil })},
			Constrain{C: Table{F: h}},
			Constrain{C: rows(nil).Or()},
		}},
	}
	for _, tc := range base {
		if !Equal(tc.a, tc.a) || !Equal(tc.a, Clone(tc.a)) {
			t.Errorf("%s: %s is not equal to itself or its clone", tc.name, tc.a)
		}
		for _, b := range tc.bs {
			if Equal(tc.a, b) || Equal(b, tc.a) {
				t.Errorf("%s: %s equals %s", tc.name, tc.a, b)
			}
		}
	}
	// A Table's span table is derived from its rows, so it is not compared.
	spanned := rows(nil)
	spanned.Spans = new(expr.SpanTable)
	if !Equal(Constrain{C: rows(nil)}, Constrain{C: spanned}) {
		t.Error("tables with equal rows are unequal because one carries its span table")
	}
}

// TestEqualNeverMatchesAClosureFor: a hand-built For has no Ref to compare
// by, and its body closure cannot be compared, so it equals nothing, itself
// included; nor does a program holding one.
func TestEqualNeverMatchesAClosureFor(t *testing.T) {
	f := For{Pattern: "^x", Body: func(Meta) Instr { return NoOp{} }}
	if Equal(f, f) || Equal(f, Clone(f)) {
		t.Error("a For without a Ref equals itself")
	}
	if Equal(f, For{Pattern: "^x"}) || Equal(For{Pattern: "^x"}, f) {
		t.Error("a For without a Ref equals another For without one")
	}
	if prog := Seq(NoOp{}, f); Equal(prog, prog) {
		t.Error("a block holding a For without a Ref equals itself")
	}
}

func TestEqualAllocatesNothing(t *testing.T) {
	a, b := equalSample(), equalSample()
	if n := testing.AllocsPerRun(10, func() {
		if !Equal(a, b) {
			t.Fatal("two builds of one program are unequal")
		}
	}); n != 0 {
		t.Errorf("Equal allocates %.0f objects per call", n)
	}
}

// TestCloneSharesNoSlice writes into every slice of the original after
// cloning: the clone must still equal a fresh build.
func TestCloneSharesNoSlice(t *testing.T) {
	orig := equalSample().(Block)
	cl := Clone(orig)
	var scribble func(Instr)
	var scribbleCond func(Cond)
	scribbleCond = func(c Cond) {
		switch v := c.(type) {
		case CAnd:
			for i := range v.Cs {
				scribbleCond(v.Cs[i])
				v.Cs[i] = CBool(false)
			}
		case COr:
			for i := range v.Cs {
				scribbleCond(v.Cs[i])
				v.Cs[i] = CBool(false)
			}
		case CNot:
			scribbleCond(v.C)
		case Table:
			for i := range v.Rows {
				for j := range v.Rows[i].Excl {
					v.Rows[i].Excl[j].Len = 3
				}
				v.Rows[i].V++
			}
		}
	}
	scribble = func(ins Instr) {
		switch v := ins.(type) {
		case Block:
			for i := range v.Is {
				scribble(v.Is[i])
				v.Is[i] = Fail{Msg: "scribbled"}
			}
		case If:
			scribbleCond(v.C)
			scribble(v.Then)
			scribble(v.Else)
		case Constrain:
			scribbleCond(v.C)
		case Fork:
			for i := range v.Ports {
				v.Ports[i] = 99
			}
		}
	}
	scribble(orig)
	if Equal(orig, equalSample()) {
		t.Fatal("scribbling changed nothing")
	}
	if !Equal(cl, equalSample()) {
		t.Fatalf("writing into the original changed its clone:\n%s", cl)
	}
}
