package sefl

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"symnet/internal/expr"
)

var (
	pMAC  = Hdr{Off: Off{Rel: 0}, Size: 48, Name: "EtherDst"}
	pVLAN = Hdr{Off: Off{Rel: 48}, Size: 16, Name: "VlanId"}
	pIP   = Hdr{Off: Off{Rel: 64}, Size: 32, Name: "IpDst"}
)

func macTable(n int) Table {
	rows := make([]expr.GuardRow, n)
	for i := range rows {
		rows[i] = expr.GuardRow{Kind: expr.GuardEq, V: uint64(i*3 + 1)}
	}
	return Table{F: pMAC, Rows: rows}
}

func routeTable() Table {
	return Table{F: pIP, Rows: []expr.GuardRow{
		{Kind: expr.GuardPrefix, V: 0x0a000000, Len: 24},
		{Kind: expr.GuardPrefix, V: 0x0a000100, Len: 24},
		{Kind: expr.GuardPrefix, V: 0x0a010000, Len: 16, Excl: []expr.GuardExcl{{V: 0x0a010200, Len: 24}, {V: 0x0a010400, Len: 24}}},
		{Kind: expr.GuardPrefix, V: 0, Len: 0},
	}}
}

// roundTrip encodes and decodes one condition, reporting the wire node.
func roundTrip(t *testing.T, c Cond) (Cond, *WireCond) {
	t.Helper()
	w, err := encodeCond(c)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	d, err := decodeCond(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return d, w
}

// TestTableOrIsTheModelTree: Or builds the tree the router and switch models
// wrote before they wrote tables — prefix widths left at the 32-bit default,
// fixed-width MAC constants, exclusions as "head & !excl", and a lone row
// without exclusions bare.
func TestTableOrIsTheModelTree(t *testing.T) {
	dst := Ref{LV: pIP}
	wantRoutes := OrC(
		Prefix{E: dst, Value: 0x0a000000, Len: 24},
		Prefix{E: dst, Value: 0x0a000100, Len: 24},
		AndC(
			Prefix{E: dst, Value: 0x0a010000, Len: 16},
			NotC(Prefix{E: dst, Value: 0x0a010200, Len: 24}),
			NotC(Prefix{E: dst, Value: 0x0a010400, Len: 24}),
		),
		Prefix{E: dst, Value: 0, Len: 0},
	)
	if got := routeTable().Or(); !reflect.DeepEqual(got, wantRoutes) {
		t.Errorf("routes: Or() =\n %#v\nwant\n %#v", got, wantRoutes)
	}
	mac := Ref{LV: pMAC}
	wantMACs := OrC(Eq(mac, CW(1, 48)), Eq(mac, CW(4, 48)), Eq(mac, CW(7, 48)))
	if got := macTable(3).Or(); !reflect.DeepEqual(got, wantMACs) {
		t.Errorf("macs: Or() = %v, want %v", got, wantMACs)
	}
	if got := macTable(1).Or(); !reflect.DeepEqual(got, Eq(mac, CW(1, 48))) {
		t.Errorf("one mac: Or() = %#v, want the bare atom", got)
	}
	// Off the 32-bit default a prefix carries the field's width.
	vlan := Table{F: pVLAN, Rows: []expr.GuardRow{{Kind: expr.GuardPrefix, V: 0x100, Len: 8}}}
	if got, want := vlan.Or(), (Prefix{E: Ref{LV: pVLAN}, Value: 0x100, Len: 8, Width: 16}); got != want {
		t.Errorf("16-bit prefix: Or() = %#v, want %#v", got, want)
	}
}

// randTable draws a table the way the models fill them: 48-bit equality rows
// or 32-bit prefix rows, each with zero to three exclusions, sometimes a
// single row.
func randTable(rng *rand.Rand) Table {
	t := Table{F: pIP}
	kind := expr.GuardPrefix
	if rng.Intn(2) == 0 {
		t.F, kind = pMAC, expr.GuardEq
	}
	n := 1 + rng.Intn(6)
	if rng.Intn(4) == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		r := expr.GuardRow{Kind: kind, V: rng.Uint64() & expr.Mask(t.F.Size)}
		if kind == expr.GuardPrefix {
			r.Len = rng.Intn(33)
			r.V &= expr.PrefixMask(r.Len, 32)
		}
		for k := rng.Intn(4); k > 0; k-- {
			plen := rng.Intn(t.F.Size + 1)
			r.Excl = append(r.Excl, expr.GuardExcl{V: rng.Uint64() & expr.PrefixMask(plen, t.F.Size), Len: plen})
		}
		t.Rows = append(t.Rows, r)
	}
	return t
}

// TestTableStringAndCodec: over random tables, String renders the field
// and the span table, whether the table carries that span table or merges
// it, and the codec ships the rows as a wCTable that decodes to the same
// table.
func TestTableStringAndCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bare, excl := 0, 0
	for trial := 0; trial < 500; trial++ {
		tb := randTable(rng)
		want := tb.F.String() + " in " + tb.SpanTable().String()
		carried := tb
		carried.Spans = tb.SpanTable()
		if got, gotCarried := tb.String(), carried.String(); got != want || gotCarried != want {
			t.Fatalf("trial %d: String() =\n %s\nwith its span table\n %s\nwant\n %s", trial, got, gotCarried, want)
		}
		d, w := roundTrip(t, tb)
		if w.Kind != wCTable || len(w.Cs) != 0 {
			t.Fatalf("trial %d: wire kind %d with %d child nodes, want a wCTable", trial, w.Kind, len(w.Cs))
		}
		if !reflect.DeepEqual(d, tb) {
			t.Fatalf("trial %d: decoded %#v\nwant %#v", trial, d, tb)
		}
		if len(tb.Rows) == 1 && len(tb.Rows[0].Excl) == 0 {
			bare++
		}
		for _, r := range tb.Rows {
			excl += len(r.Excl)
		}
	}
	if bare == 0 || excl == 0 {
		t.Fatalf("generator too tame: %d bare tables, %d exclusions", bare, excl)
	}
}

// TestDecodeRejectsMalformedTable: the compiler trusts a table's rows, so
// the decoder refuses a shipped table that a model could not have written,
// naming the row.
func TestDecodeRejectsMalformedTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		t    Table
		want string
	}{
		{"zero-width field", Table{F: Hdr{Off: Off{Rel: 0}, Name: "Z"}, Rows: macTable(4).Rows}, "table field Z is 0 bits wide"},
		{"wide field", Table{F: Hdr{Off: Off{Rel: 0}, Size: 65, Name: "W"}, Rows: macTable(4).Rows}, "table field W is 65 bits wide"},
		{"long prefix", Table{F: pIP, Rows: []expr.GuardRow{{Kind: expr.GuardPrefix}, {Kind: expr.GuardPrefix, Len: 33}}},
			"table row 1: prefix length 33 outside the 32-bit field"},
		{"long exclusion", Table{F: pMAC, Rows: []expr.GuardRow{{Kind: expr.GuardEq, Excl: []expr.GuardExcl{{Len: 48}, {Len: 49}}}}},
			"table row 0: exclusion 1 length 49 outside the 48-bit field"},
	} {
		w, err := encodeCond(tc.t)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if _, err := decodeCond(w); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error = %v, want %q", tc.name, err, tc.want)
		}
		if got, want := tc.t.String(), tc.t.F.String()+" in malformed("+tc.t.Check().Error()+")"; got != want {
			t.Errorf("%s: String() = %q, want %q", tc.name, got, want)
		}
	}
	// No stream carries an unknown row kind; Check still names it.
	bad := Table{F: pMAC, Rows: []expr.GuardRow{{Kind: expr.GuardEq}, {Kind: 7}}}
	if err := bad.Check(); err == nil || !strings.Contains(err.Error(), "table row 1: unknown kind 7") {
		t.Errorf("unknown kind: Check() = %v", err)
	}
	if got, want := bad.String(), "EtherDst in malformed(sefl: table row 1: unknown kind 7)"; got != want {
		t.Errorf("unknown kind: String() = %q, want %q", got, want)
	}
	// A field that is no header.
	w, err := encodeCond(macTable(4))
	if err != nil {
		t.Fatal(err)
	}
	w.L, err = encodeExpr(Ref{LV: Meta{Name: "m"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCond(w); err == nil || !strings.Contains(err.Error(), "is not a header") {
		t.Errorf("metadata field: decode error = %v", err)
	}
	// A truncated row stream.
	w, _ = encodeCond(routeTable())
	w.Rows = w.Rows[:len(w.Rows)-1]
	if _, err := decodeCond(w); err == nil || !strings.Contains(err.Error(), "sefl: table: expr: truncated guard-row stream") {
		t.Errorf("truncated rows: decode error = %v", err)
	}
}

// TestHandWrittenOrStaysTree: an Or is a tree on the wire whatever its
// shape — nothing parses trees back into rows — and round-trips exactly.
func TestHandWrittenOrStaysTree(t *testing.T) {
	cases := []Cond{
		routeTable().Or(),
		macTable(12).Or(),
		// Mixed fields.
		OrC(Eq(Ref{LV: pMAC}, CW(1, 48)), Eq(Ref{LV: pVLAN}, CW(2, 16)),
			Eq(Ref{LV: pMAC}, CW(3, 48)), Eq(Ref{LV: pMAC}, CW(4, 48))),
		// Metadata field.
		OrC(Eq(Ref{LV: Meta{Name: "m"}}, CW(1, 16)), Eq(Ref{LV: Meta{Name: "m"}}, CW(2, 16)),
			Eq(Ref{LV: Meta{Name: "m"}}, CW(3, 16)), Eq(Ref{LV: Meta{Name: "m"}}, CW(4, 16))),
	}
	for i, c := range cases {
		d, w := roundTrip(t, c)
		if w.Kind != wCOr || len(w.Rows) != 0 {
			t.Errorf("case %d: wire kind = %d with %d row words, want a plain COr", i, w.Kind, len(w.Rows))
		}
		if !reflect.DeepEqual(d, c) {
			t.Errorf("case %d: round trip differs", i)
		}
	}
}

// TestTableInsideInstruction: tables cross the instruction codec (the path
// distributed setup frames take) and render in instructions as their span
// tables.
func TestTableInsideInstruction(t *testing.T) {
	ins := Seq(
		Constrain{C: routeTable()},
		If{C: macTable(8), Then: Forward{Port: 0}, Else: Fail{Msg: "no"}},
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
	want := `{Constrain(IpDst in {0-4294967295}:w32); If(EtherDst in {1,4,7,10,… 8 spans}:w48,Forward(0),Fail("no"))}`
	if ins.String() != want {
		t.Fatalf("instruction renders\n %s\nwant\n %s", ins, want)
	}
}
