package sefl

import (
	"reflect"
	"strings"
	"testing"
)

func init() {
	RegisterForBody("test.incr", func(arg string) func(Meta) Instr {
		return func(k Meta) Instr {
			return Assign{LV: k, E: Add{A: Ref{LV: k}, B: C(1)}}
		}
	})
}

// codecSample builds one instance of every instruction, expression,
// condition and l-value variant.
func codecSample() Instr {
	return Seq(
		NoOp{},
		Allocate{LV: Hdr{Off: Off{Rel: 64}, Size: 32, Name: "F"}, Size: 32},
		Allocate{LV: Meta{Name: "m", Local: true}, Size: 16},
		Assign{LV: Hdr{Off: FromTag("L3", 96), Size: 32}, E: Add{A: Ref{LV: Meta{Name: "g"}}, B: C(7)}},
		Assign{LV: Meta{Name: "p", Instance: 3, Pinned: true}, E: Sub{A: Symbolic{W: 16, Name: "s"}, B: CW(2, 16)}},
		CreateTag{Name: "L4", E: TagVal{Tag: "L3", Rel: 160}},
		DestroyTag{Name: "L4"},
		Constrain{C: AndC(
			Eq(Ref{LV: IPSrc}, C(10)),
			OrC(Prefix{E: Ref{LV: IPDst}, Value: 0x0a000000, Len: 8, Width: 32},
				Prefix{E: Ref{LV: IPSrc}, Value: 0xc0a80100, Len: 24}),
			NotC(MetaPresent{M: Meta{Name: "nat", Local: true}}),
			TagPresent{Tag: "L2"},
			CBool(true),
		)},
		If{C: Lt(Ref{LV: TcpDst}, C(1024)),
			Then: NewFor(`^OPT\d+$`, "test.incr", ""),
			Else: Fail{Msg: "high port"}},
		Fork{Ports: []int{0, 2}},
		Forward{Port: 1},
	)
}

func TestInstrCodecRoundTrip(t *testing.T) {
	in := codecSample()
	w, err := EncodeInstr(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeInstr(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The For body is a closure and compares by identity; render both trees
	// instead, then compare the For bodies behaviorally.
	if in.String() != out.String() {
		t.Fatalf("round trip changed rendering:\n in: %s\nout: %s", in, out)
	}
	var inFor, outFor For
	findFor(in, &inFor)
	findFor(out, &outFor)
	key := Meta{Name: "OPT4", Instance: 0, Pinned: true}
	if got, want := outFor.Body(key).String(), inFor.Body(key).String(); got != want {
		t.Fatalf("For body differs after round trip: %q != %q", got, want)
	}
	if outFor.Ref != "test.incr" {
		t.Fatalf("For ref lost: %+v", outFor)
	}
}

func findFor(ins Instr, out *For) {
	switch v := ins.(type) {
	case For:
		*out = v
	case Block:
		for _, sub := range v.Is {
			findFor(sub, out)
		}
	case If:
		findFor(v.Then, out)
		findFor(v.Else, out)
	}
}

func TestInstrCodecRoundTripStructural(t *testing.T) {
	// Everything except For (whose body cannot compare) round-trips to a
	// reflect.DeepEqual-identical tree.
	in := Seq(
		Assign{LV: IPTTL, E: Sub{A: Ref{LV: IPTTL}, B: C(1)}},
		Constrain{C: Ge(Ref{LV: IPTTL}, C(1))},
		If{C: Eq(Ref{LV: EtherDst}, CW(0xffffff, 48)), Then: Fork{Ports: []int{0, 1}}, Else: Forward{Port: 0}},
	)
	w, err := EncodeInstr(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeInstr(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip not structural:\n in: %#v\nout: %#v", in, out)
	}
}

func TestEncodeBareClosureForFails(t *testing.T) {
	_, err := EncodeInstr(For{Pattern: "^x", Body: func(Meta) Instr { return NoOp{} }})
	if err == nil || !strings.Contains(err.Error(), "RegisterForBody") {
		t.Fatalf("want registry error, got %v", err)
	}
}

func TestDecodeUnregisteredForFails(t *testing.T) {
	_, err := DecodeInstr(&WireInstr{Kind: wFor, Name: "^x", Ref: "no.such.body"})
	if err == nil || !strings.Contains(err.Error(), "no.such.body") {
		t.Fatalf("want unregistered-ref error, got %v", err)
	}
}

func TestNewForPanicsOnUnknownRef(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFor with unknown ref must panic")
		}
	}()
	NewFor("^x", "definitely.not.registered", "")
}
