package prog

// A fleet member is sent each port's SEFL source and compiles it as the
// coordinator did. These tests pin that the program compiled from source
// that crossed the wire (sefl.EncodeInstr, sefl.DecodeInstr) is the
// coordinator's: same dump, same ops and conditions, static folds and For
// failure messages.

import (
	"reflect"
	"testing"

	"symnet/internal/expr"
	"symnet/internal/sefl"
)

func init() {
	sefl.RegisterForBody("prog.test.strip", func(arg string) func(sefl.Meta) sefl.Instr {
		return func(k sefl.Meta) sefl.Instr {
			return sefl.Assign{LV: k, E: sefl.C(0)}
		}
	})
	sefl.RegisterForBody("prog.test.noop", func(string) func(sefl.Meta) sefl.Instr {
		return func(sefl.Meta) sefl.Instr { return sefl.NoOp{} }
	})
}

// codecProgram exercises every op kind, a repeated guard, static folding,
// and a registered For.
func codecProgram() sefl.Instr {
	guard := sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: 0x0a000000, Len: 8, Width: 32}
	return sefl.Seq(
		sefl.Allocate{LV: sefl.Meta{Name: "seen", Local: true}, Size: 8},
		sefl.Assign{LV: sefl.Meta{Name: "seen", Local: true}, E: sefl.C(1)},
		sefl.CreateTag{Name: "X", E: sefl.C(400)},
		sefl.DestroyTag{Name: "X"},
		sefl.Constrain{C: guard},
		sefl.Constrain{C: guard},
		sefl.NewFor(`^OPT\d+$`, "prog.test.strip", ""),
		sefl.If{
			C:    sefl.Lt(sefl.Ref{LV: sefl.TcpDst}, sefl.C(1024)),
			Then: sefl.Fork{Ports: []int{0, 1}},
			Else: sefl.Seq(
				sefl.Constrain{C: sefl.Eq(sefl.CW(3, 8), sefl.CW(3, 8))}, // static-folds
				sefl.Forward{Port: 0},
			),
		},
	)
}

// viaWire compiles code as a fleet member does: from the source that
// crossed the wire.
func viaWire(t *testing.T, code sefl.Instr, elem string, instance int, label string) *Program {
	t.Helper()
	w, err := sefl.EncodeInstr(code)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := sefl.DecodeInstr(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return Compile(back, elem, instance, label)
}

func TestProgramCodecRoundTrip(t *testing.T) {
	p := Compile(codecProgram(), "e1", 4, "e1.in[0]")
	q := viaWire(t, codecProgram(), "e1", 4, "e1.in[0]")
	if got, want := q.String(), p.String(); got != want {
		t.Fatalf("the member's program dump differs:\n--- coordinator\n%s\n--- member\n%s", want, got)
	}
	if len(q.Ops) != len(p.Ops) || !reflect.DeepEqual(q.Segs, p.Segs) {
		t.Fatalf("the member's program has %d ops in %d segments, the coordinator's %d in %d", len(q.Ops), len(q.Segs), len(p.Ops), len(p.Segs))
	}
	for i := range p.Ops {
		a, b := &p.Ops[i], &q.Ops[i]
		if a.Kind != b.Kind || a.LV != b.LV || a.Size != b.Size || a.Msg != b.Msg || a.Tag != b.Tag ||
			a.Port != b.Port || !reflect.DeepEqual(a.Ports, b.Ports) || a.Then != b.Then || a.Else != b.Else ||
			!equalCExpr(a.E, b.E) || !deepEqualCond(a.C, b.C) || (a.For == nil) != (b.For == nil) ||
			a.For != nil && (a.For.Pattern != b.For.Pattern || a.For.Err != b.For.Err) {
			t.Fatalf("op %d differs:\n--- coordinator\n%s\n--- member\n%s", i, p.opString(a), q.opString(b))
		}
	}
}

func TestProgramCodecStaticFold(t *testing.T) {
	q := viaWire(t, sefl.Constrain{C: sefl.Eq(sefl.CW(3, 8), sefl.CW(3, 8))}, "e", 0, "t")
	c := q.Ops[0].C
	if !c.HasStatic {
		t.Fatal("static fold lost across the wire")
	}
	got, err := EvalCond(nil, c)
	if err != nil {
		t.Fatalf("eval static: %v", err)
	}
	if got != expr.Bool(true) {
		t.Fatalf("static value = %v, want true", got)
	}
}

func TestProgramCodecBadForPatternMessageStable(t *testing.T) {
	// A bad pattern compiles to a precomputed failure message, part of
	// observable path output: the member's compile must give the same bytes.
	p := Compile(sefl.NewFor("(", "prog.test.noop", ""), "e", 0, "t")
	if p.Ops[0].For.Err == "" {
		t.Fatal("test premise: bad pattern should precompute an error")
	}
	q := viaWire(t, sefl.NewFor("(", "prog.test.noop", ""), "e", 0, "t")
	if q.Ops[0].For.Err != p.Ops[0].For.Err {
		t.Fatalf("bad-pattern message drifted: %q != %q", q.Ops[0].For.Err, p.Ops[0].For.Err)
	}
}
