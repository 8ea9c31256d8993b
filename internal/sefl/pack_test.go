package sefl

import (
	"reflect"
	"testing"
)

var (
	pMAC  = Hdr{Off: At(0), Size: 48, Name: "EtherDst"}
	pVLAN = Hdr{Off: At(48), Size: 16, Name: "VlanId"}
	pIP   = Hdr{Off: At(64), Size: 32, Name: "IpDst"}
)

func packMACOr(n int) Cond {
	cs := make([]Cond, n)
	for i := range cs {
		cs[i] = Eq(Ref{LV: pMAC}, CW(uint64(i*3+1), 48))
	}
	return OrC(cs...)
}

func packRouteOr() Cond {
	dst := Ref{LV: pIP}
	return OrC(
		Prefix{E: dst, Value: 0x0a000000, Len: 24}, // Width 0: the 32-bit default
		Prefix{E: dst, Value: 0x0a000100, Len: 24},
		AndC(
			Prefix{E: dst, Value: 0x0a010000, Len: 16},
			NotC(Prefix{E: dst, Value: 0x0a010200, Len: 24}),
			NotC(Prefix{E: dst, Value: 0x0a010400, Len: 24}),
		),
		Prefix{E: dst, Value: 0, Len: 0},
	)
}

func packVLANOr() Cond {
	pairs := [][2]uint64{{1, 10}, {1, 11}, {2, 20}, {3, 30}, {3, 31}}
	cs := make([]Cond, len(pairs))
	for i, p := range pairs {
		cs[i] = AndC(
			Eq(Ref{LV: pVLAN}, CW(p[0], 16)),
			Eq(Ref{LV: pMAC}, CW(p[1], 48)),
		)
	}
	return OrC(cs...)
}

// roundTrip encodes and decodes one condition, reporting the wire node.
func roundTrip(t *testing.T, c Cond) (Cond, *WireCond) {
	t.Helper()
	w, err := EncodeCond(c)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	d, err := DecodeCond(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return d, w
}

// TestPackedOrRoundTrip: the egress guard shapes use the packed wire form
// and decode back to structurally identical trees — display names,
// zero-value prefix widths and exclusion order included.
func TestPackedOrRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cond Cond
	}{
		{"mac", packMACOr(12)},
		{"routes", packRouteOr()},
	} {
		d, w := roundTrip(t, tc.cond)
		if w.Kind != wCOrPacked {
			t.Errorf("%s: wire kind = %d, want packed", tc.name, w.Kind)
		}
		if len(w.Cs) != 0 {
			t.Errorf("%s: packed node still carries %d child nodes", tc.name, len(w.Cs))
		}
		if !reflect.DeepEqual(d, tc.cond) {
			t.Errorf("%s: decoded tree differs:\n got %v\nwant %v", tc.name, d, tc.cond)
		}
	}
}

// TestPackedOrRejectsNonTableShapes: conditions that are not uniform table
// guards keep the tree form (and still round-trip exactly).
func TestPackedOrRejectsNonTableShapes(t *testing.T) {
	cases := []Cond{
		// Below the entry threshold.
		OrC(Eq(Ref{LV: pMAC}, CW(1, 48)), Eq(Ref{LV: pMAC}, CW(2, 48))),
		// Mixed fields.
		OrC(Eq(Ref{LV: pMAC}, CW(1, 48)), Eq(Ref{LV: pVLAN}, CW(2, 16)),
			Eq(Ref{LV: pMAC}, CW(3, 48)), Eq(Ref{LV: pMAC}, CW(4, 48))),
		// Mixed constant widths.
		OrC(Eq(Ref{LV: pMAC}, CW(1, 48)), Eq(Ref{LV: pMAC}, CW(2, 32)),
			Eq(Ref{LV: pMAC}, CW(3, 48)), Eq(Ref{LV: pMAC}, CW(4, 48))),
		// Adaptive-width constants.
		OrC(Eq(Ref{LV: pMAC}, C(1)), Eq(Ref{LV: pMAC}, C(2)),
			Eq(Ref{LV: pMAC}, C(3)), Eq(Ref{LV: pMAC}, C(4))),
		// Mixed prefix widths.
		OrC(Prefix{E: Ref{LV: pIP}, Value: 1 << 8, Len: 24},
			Prefix{E: Ref{LV: pIP}, Value: 2 << 8, Len: 24, Width: 32},
			Prefix{E: Ref{LV: pIP}, Value: 3 << 8, Len: 24},
			Prefix{E: Ref{LV: pIP}, Value: 4 << 8, Len: 24}),
		// A non-atom disjunct.
		OrC(Eq(Ref{LV: pMAC}, CW(1, 48)), Eq(Ref{LV: pMAC}, CW(2, 48)),
			Eq(Ref{LV: pMAC}, CW(3, 48)), CBool(true)),
		// Metadata field.
		OrC(Eq(Ref{LV: Meta{Name: "m"}}, CW(1, 16)), Eq(Ref{LV: Meta{Name: "m"}}, CW(2, 16)),
			Eq(Ref{LV: Meta{Name: "m"}}, CW(3, 16)), Eq(Ref{LV: Meta{Name: "m"}}, CW(4, 16))),
		// Two-field (VLAN, MAC) pairs.
		packVLANOr(),
	}
	for i, c := range cases {
		d, w := roundTrip(t, c)
		if w.Kind != wCOr {
			t.Errorf("case %d: wire kind = %d, want plain COr", i, w.Kind)
		}
		if !reflect.DeepEqual(d, c) {
			t.Errorf("case %d: round trip differs", i)
		}
	}
}

// TestPackedOrInsideInstruction: packing applies through the instruction
// codec (the path distributed setup frames take).
func TestPackedOrInsideInstruction(t *testing.T) {
	ins := Seq(
		Constrain{C: packVLANOr()},
		If{C: packMACOr(8), Then: Forward{Port: 0}, Else: Fail{Msg: "no"}},
	)
	w, err := EncodeInstr(ins)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeInstr(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, ins) {
		t.Fatal("instruction round trip differs")
	}
}
