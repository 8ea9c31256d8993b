package prog

import (
	"fmt"
	"strings"
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
}

// codecProgram exercises every op kind, guard dedup, static folding, and a
// registered For.
func codecProgram() sefl.Instr {
	guard := sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: 0x0a000000, Len: 8, Width: 32}
	return sefl.Seq(
		sefl.Allocate{LV: sefl.Meta{Name: "seen", Local: true}, Size: 8},
		sefl.Assign{LV: sefl.Meta{Name: "seen", Local: true}, E: sefl.C(1)},
		sefl.CreateTag{Name: "X", E: sefl.C(400)},
		sefl.DestroyTag{Name: "X"},
		sefl.Constrain{C: guard},
		sefl.Constrain{C: guard}, // dedup: same node must be shared
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

func TestProgramCodecRoundTrip(t *testing.T) {
	p := Compile(codecProgram(), "e1", 4, "e1.in[0]")
	w, err := EncodeProgram(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	q, err := DecodeProgram(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got, want := q.String(), p.String(); got != want {
		t.Fatalf("decoded program dump differs:\n--- original\n%s\n--- decoded\n%s", want, got)
	}
	if q.Conds != p.Conds || q.CondsSeen != p.CondsSeen {
		t.Fatalf("cond counts differ: %d/%d != %d/%d", q.Conds, q.CondsSeen, p.Conds, p.CondsSeen)
	}
}

// TestProgramCodecPreservesCondSharing pins that structurally equal guards,
// hash-consed to one node at compile time, decode back to one shared node
// (sharing carries the single-slot evaluation memo).
func TestProgramCodecPreservesCondSharing(t *testing.T) {
	p := Compile(codecProgram(), "e1", 4, "t")
	var orig []*CCond
	for i := range p.Ops {
		if p.Ops[i].Kind == OpConstrain && !p.Ops[i].C.HasStatic {
			orig = append(orig, p.Ops[i].C)
		}
	}
	if len(orig) < 2 || orig[0] != orig[1] {
		t.Fatalf("test premise: compiled guards should share one node, got %v", orig)
	}
	w, err := EncodeProgram(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	q, err := DecodeProgram(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var dec []*CCond
	for i := range q.Ops {
		if q.Ops[i].Kind == OpConstrain && !q.Ops[i].C.HasStatic {
			dec = append(dec, q.Ops[i].C)
		}
	}
	if len(dec) != len(orig) || dec[0] != dec[1] {
		t.Fatal("decoded guards no longer share one node")
	}
	if dec[0].FP != orig[0].FP {
		t.Fatalf("fingerprint changed across codec: %v != %v", dec[0].FP, orig[0].FP)
	}
}

func TestProgramCodecStaticFold(t *testing.T) {
	p := Compile(sefl.Constrain{C: sefl.Eq(sefl.CW(3, 8), sefl.CW(3, 8))}, "e", 0, "t")
	w, err := EncodeProgram(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	q, err := DecodeProgram(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c := q.Ops[0].C
	if !c.HasStatic {
		t.Fatal("static fold lost across codec")
	}
	got, err := EvalCond(nil, c)
	if err != nil {
		t.Fatalf("eval static: %v", err)
	}
	if got != expr.Bool(true) {
		t.Fatalf("static value = %v, want true", got)
	}
}

func TestProgramCodecBareClosureForFails(t *testing.T) {
	p := Compile(sefl.For{Pattern: "^m", Body: func(sefl.Meta) sefl.Instr { return sefl.NoOp{} }}, "e", 0, "t")
	_, err := EncodeProgram(p)
	if err == nil || !strings.Contains(err.Error(), "NewFor") {
		t.Fatalf("want bare-closure error, got %v", err)
	}
}

func TestProgramCodecBadForPatternMessageStable(t *testing.T) {
	// A bad pattern compiles to a precomputed failure message; the decoder
	// rebuilds the ForOp through the same constructor, so the message (part
	// of observable path output) must survive byte-identically.
	sefl.RegisterForBody("prog.test.noop", func(string) func(sefl.Meta) sefl.Instr {
		return func(sefl.Meta) sefl.Instr { return sefl.NoOp{} }
	})
	p := Compile(sefl.NewFor("(", "prog.test.noop", ""), "e", 0, "t")
	if p.Ops[0].For.Err == "" {
		t.Fatal("test premise: bad pattern should precompute an error")
	}
	w, err := EncodeProgram(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	q, err := DecodeProgram(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if q.Ops[0].For.Err != p.Ops[0].For.Err {
		t.Fatalf("bad-pattern message drifted: %q != %q", q.Ops[0].For.Err, p.Ops[0].For.Err)
	}
}

// TestProgramCodecRejectsMalformedSegments pins the decoder's segment checks:
// a shipped program whose segments leave the op array, overlap, or let an op
// enter its own or a later segment is refused with a pointed error — run, a
// cyclic one would recurse until the stack overflows, which kills the
// process outright.
func TestProgramCodecRejectsMalformedSegments(t *testing.T) {
	p := Compile(codecProgram(), "e1", 4, "e1.in[0]")
	// holder finds the first op of a kind and the segment holding it.
	holder := func(kind OpKind) (op int, seg SegID) {
		for id, s := range p.Segs {
			for i := s.Lo; i < s.Hi; i++ {
				if p.Ops[i].Kind == kind {
					return int(i), SegID(id)
				}
			}
		}
		t.Fatalf("test premise: no op of kind %d", kind)
		return 0, 0
	}
	ifOp, ifSeg := holder(OpIf)
	for _, tc := range []struct {
		name   string
		mutate func(w *WireProgram)
		want   string
	}{
		{"entry out of range", func(w *WireProgram) { w.Entry = SegID(len(w.Segs)) }, "entry segment"},
		{"negative entry", func(w *WireProgram) { w.Entry = -1 }, "entry segment -1 out of range"},
		{"segment past the ops", func(w *WireProgram) { w.Segs[len(w.Segs)-1].Hi = int32(len(w.Ops) + 1) }, "spans ops"},
		{"segment ending before it starts", func(w *WireProgram) { w.Segs[0].Hi = w.Segs[0].Lo - 1 }, "segment 0 spans ops"},
		{"overlapping segments", func(w *WireProgram) { w.Segs[1].Lo = w.Segs[0].Lo }, "segment 1 spans ops"},
		{"then arm enters its own segment", func(w *WireProgram) { w.Ops[ifOp].Then = ifSeg },
			fmt.Sprintf("op %d in segment %d enters segment %d; want an earlier one", ifOp, ifSeg, ifSeg)},
		{"else arm out of range", func(w *WireProgram) { w.Ops[ifOp].Else = SegID(len(w.Segs)) },
			fmt.Sprintf("op %d in segment %d enters segment %d; want an earlier one", ifOp, ifSeg, len(p.Segs))},
		{"negative arm", func(w *WireProgram) { w.Ops[ifOp].Then = -1 }, "enters segment -1"},
		{"block enters its own segment", func(w *WireProgram) { w.Ops[ifOp].Kind, w.Ops[ifOp].Sub = OpSub, ifSeg },
			fmt.Sprintf("op %d in segment %d enters segment %d; want an earlier one", ifOp, ifSeg, ifSeg)},
		// A lowered guard crosses the wire as its rows only.
		{"interval table without rows", func(w *WireProgram) { w.CondTab[0].Kind, w.CondTab[0].ITRows = CIntervalTable, nil },
			"interval-table cond 0 without rows"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := EncodeProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			// The wire form aliases the program's slices; mutate copies.
			w.Segs = append([]Seg(nil), w.Segs...)
			w.Ops = append([]WireOp(nil), w.Ops...)
			tc.mutate(w)
			_, err = DecodeProgram(w)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "prog: decode e1.in[0]: ") {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
}
