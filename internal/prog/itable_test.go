package prog

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/sefl"
)

var (
	itMAC  = sefl.Hdr{Off: sefl.Off{Rel: 0}, Size: 48, Name: "Mac"}
	itVLAN = sefl.Hdr{Off: sefl.Off{Rel: 48}, Size: 16, Name: "Vlan"}
	itIP   = sefl.Hdr{Off: sefl.Off{Rel: 64}, Size: 32, Name: "Ip"}
)

func macGuard(n int) sefl.Table {
	rows := make([]expr.GuardRow, n)
	for i := range rows {
		rows[i] = expr.GuardRow{Kind: expr.GuardEq, V: uint64(i * 2)}
	}
	return sefl.Table{F: itMAC, Rows: rows}
}

func vlanGuard(pairs [][2]uint64) sefl.Cond {
	cs := make([]sefl.Cond, len(pairs))
	for i, p := range pairs {
		cs[i] = sefl.AndC(
			sefl.Eq(sefl.Ref{LV: itVLAN}, sefl.CW(p[0], 16)),
			sefl.Eq(sefl.Ref{LV: itMAC}, sefl.CW(p[1], 48)),
		)
	}
	return sefl.OrC(cs...)
}

func prefixGuard() sefl.Table {
	return sefl.Table{F: itIP, Rows: []expr.GuardRow{
		{Kind: expr.GuardPrefix, V: 0x0a000000, Len: 24},
		{Kind: expr.GuardPrefix, V: 0x0a000100, Len: 24},
		{Kind: expr.GuardPrefix, V: 0x0a010000, Len: 16, Excl: []expr.GuardExcl{{V: 0x0a010200, Len: 24}}},
		{Kind: expr.GuardPrefix, V: 0x0b000000, Len: 8},
	}}
}

func guardCond(t *testing.T, c sefl.Cond) *cCond {
	t.Helper()
	p := Compile(sefl.Seq(sefl.Constrain{C: c}, sefl.Forward{Port: 0}), "e", 0, "t")
	return p.Ops[0].C
}

// itEnv is a minimal Env whose header reads come from a fixed map.
type itEnv struct {
	hdrs map[int64]expr.Lin
}

func (e *itEnv) ReadHdr(off int64, size int) (expr.Lin, error) {
	if v, ok := e.hdrs[off]; ok {
		return v, nil
	}
	return expr.Lin{}, evalErrf("read of unallocated header [%d:%d]", off, size)
}
func (e *itEnv) ReadMeta(key memory.MetaKey) (expr.Lin, error) {
	return expr.Lin{}, evalErrf("no metadata")
}
func (e *itEnv) Tag(name string) (int64, bool)  { return 0, false }
func (e *itEnv) MetaExists(memory.MetaKey) bool { return false }
func (e *itEnv) Fresh(w int) expr.Lin           { return expr.Lin{Sym: 99, Width: w} }

// TestLoweringDetection: every well-formed table guard lowers to its span
// table, however small — one equality, one route with or without exclusions;
// a malformed one compiles to a static error carrying Check's message (the
// AST interpreter fails with the same one, TestMalformedTableFails in
// internal/core); every hand-written Or compiles as a tree.
func TestLoweringDetection(t *testing.T) {
	oneRoute := func(k int) sefl.Table {
		row := expr.GuardRow{Kind: expr.GuardPrefix}
		for i := 0; i < k; i++ {
			row.Excl = append(row.Excl, expr.GuardExcl{V: uint64(10+i) << 24, Len: 8})
		}
		return sefl.Table{F: itIP, Rows: []expr.GuardRow{row}}
	}
	for name, tb := range map[string]sefl.Table{
		"mac 8": macGuard(8), "mac 3": macGuard(3), "mac 1": macGuard(1),
		"prefixes": prefixGuard(), "route": oneRoute(0), "route, 2 exclusions": oneRoute(2),
		"route, 3 exclusions": oneRoute(3),
	} {
		c := guardCond(t, tb)
		if c.Kind != cIntervalTable || c.IT == nil {
			t.Fatalf("%s: not lowered: kind=%d", name, c.Kind)
		}
		if !tablesEqual(c.IT.Table, tb.SpanTable()) {
			t.Fatalf("%s: span table %v, want the rows' %v", name, c.IT.Table, tb.SpanTable())
		}
	}
	// A table that carries its span table hands it to the node.
	g := macGuard(2)
	g.Spans = g.SpanTable()
	if c := guardCond(t, g); c.IT.Table != g.Spans {
		t.Fatal("lowered guard rebuilt the span table its table carried")
	}

	long := prefixGuard()
	long.Rows = append(long.Rows, expr.GuardRow{Kind: expr.GuardPrefix, Len: 40})
	c := guardCond(t, long)
	if c.Kind != cBool || !c.HasStatic || c.StaticErr != long.Check().Error() {
		t.Fatalf("malformed table: kind=%d static=%v err=%q, want the static error %q", c.Kind, c.HasStatic, c.StaticErr, long.Check())
	}
	if _, err := EvalCond(&itEnv{}, c); err == nil || err.Error() != long.Check().Error() {
		t.Fatalf("malformed table evaluates to error %v, want %q", err, long.Check())
	}

	// Hand-written Ors are trees whatever their shape — the tree a table
	// stands for included; GuardTables reports nothing.
	mac := sefl.Ref{LV: itMAC}
	meta := sefl.Ref{LV: sefl.Meta{Name: "m"}}
	for name, or := range map[string]sefl.Cond{
		"table-shaped": macGuard(8).Or(),
		"mixed fields": sefl.OrC(
			sefl.Eq(mac, sefl.CW(1, 48)), sefl.Eq(sefl.Ref{LV: itVLAN}, sefl.CW(2, 16)),
			sefl.Eq(mac, sefl.CW(3, 48)), sefl.Eq(mac, sefl.CW(4, 48)),
		),
		"metadata field": sefl.OrC(
			sefl.Eq(meta, sefl.CW(1, 16)), sefl.Eq(meta, sefl.CW(2, 16)),
			sefl.Eq(meta, sefl.CW(3, 16)), sefl.Eq(meta, sefl.CW(4, 16)),
		),
		"wrong width": sefl.OrC(
			sefl.Eq(mac, sefl.CW(1, 32)), sefl.Eq(mac, sefl.CW(2, 32)),
			sefl.Eq(mac, sefl.CW(3, 32)), sefl.Eq(mac, sefl.CW(4, 32)),
		),
	} {
		p := Compile(sefl.Seq(sefl.Constrain{C: or}, sefl.Forward{Port: 0}), "e", 0, "t")
		if c := p.Ops[0].C; c.Kind != cOr || c.IT != nil {
			t.Errorf("%s: hand-written Or compiled to kind %d", name, c.Kind)
		}
		if its := GuardTables(p); len(its) != 0 {
			t.Errorf("%s: GuardTables reports %d tables", name, len(its))
		}
	}
}

// TestLoweredSpansMerge: adjacent and overlapping disjunct ranges merge into
// canonical spans, exclusions carve holes.
func TestLoweredSpansMerge(t *testing.T) {
	c := guardCond(t, prefixGuard())
	spans := c.IT.Table.Spans()
	want := []expr.Span{
		// 10.0.0.0/24 and 10.0.1.0/24 are adjacent: one span.
		{Lo: 0x0a000000, Hi: 0x0a0001ff},
		// 10.1.0.0/16 minus 10.1.2.0/24.
		{Lo: 0x0a010000, Hi: 0x0a0101ff},
		{Lo: 0x0a010300, Hi: 0x0a01ffff},
		// 11.0.0.0/8.
		{Lo: 0x0b000000, Hi: 0x0bffffff},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans = %x, want %x", spans, want)
	}

	// Duplicate equalities collapse.
	dup := sefl.Table{F: itMAC, Rows: []expr.GuardRow{{Kind: expr.GuardEq, V: 5}, {Kind: expr.GuardEq, V: 5}, {Kind: expr.GuardEq, V: 6}, {Kind: expr.GuardEq, V: 7}}}
	if c := guardCond(t, dup); len(c.IT.Table.Spans()) != 1 || !c.IT.Table.Contains(5) || !c.IT.Table.Contains(7) {
		t.Fatalf("duplicate/adjacent spans = %v", c.IT.Table)
	}
}

// TestEvalTableModes: table evaluation matches the Or-tree reference (the
// table's Or compiled as a tree) on concrete hits/misses and read errors, and
// produces InSet on symbolic fields.
func TestEvalTableModes(t *testing.T) {
	mac, ref := guardCond(t, macGuard(8)), guardCond(t, macGuard(8).Or())
	env := &itEnv{hdrs: map[int64]expr.Lin{0: expr.Const(6, 48)}}

	got, err := EvalCond(env, mac)
	if err != nil || got != expr.Bool(true) {
		t.Fatalf("concrete hit = %v, %v", got, err)
	}
	want, err := EvalCond(env, ref)
	if err != nil || got != want {
		t.Fatalf("reference disagrees: %v vs %v", got, want)
	}
	env.hdrs[0] = expr.Const(5, 48) // odd values are not in the table
	got, _ = EvalCond(env, mac)
	want, _ = EvalCond(env, ref)
	if got != expr.Bool(false) || want != got {
		t.Fatalf("concrete miss = %v, reference %v", got, want)
	}

	// Symbolic field: packed membership with the lowered table.
	env.hdrs[0] = expr.Lin{Sym: 4, Width: 48}
	got, err = EvalCond(env, mac)
	if err != nil {
		t.Fatal(err)
	}
	is, ok := got.(expr.InSet)
	if !ok || is.T != mac.IT.Table || is.L.Sym != 4 {
		t.Fatalf("symbolic eval = %#v", got)
	}

	// Missing field read errors identically.
	delete(env.hdrs, 0)
	_, gotErr := EvalCond(env, mac)
	_, wantErr := EvalCond(env, ref)
	if gotErr == nil || !errEqual(gotErr, wantErr) {
		t.Fatalf("read error: %v vs %v", gotErr, wantErr)
	}
}

// TestDriftedTableReadErrs: a table guard whose field reads at another width
// than the field's fails with an error naming both widths, whether the value
// is symbolic or concrete. The engine never reads a header at another width
// (memory refuses a size mismatch, header writes are coerced to the field's
// size); this pins what a foreign Env gets.
func TestDriftedTableReadErrs(t *testing.T) {
	mac := guardCond(t, macGuard(64))
	for _, v := range []expr.Lin{{Sym: 7, Width: 16}, expr.Const(6, 32)} {
		env := &itEnv{hdrs: map[int64]expr.Lin{0: v}}
		got, err := EvalCond(env, mac)
		want := fmt.Sprintf("table guard over a 48-bit field read a %d-bit value", v.Width)
		if got != nil || err == nil || err.Error() != want {
			t.Fatalf("%d-bit read = (%v, %v), want error %q", v.Width, got, err, want)
		}
	}
}

// TestPairGuardStaysOrTree: a (VLAN, MAC) pair Or constrains two fields per
// disjunct, so it is no interval table: it compiles to an Or-tree that
// GuardTables does not report, and the SEFL codec ships it as a tree that
// decodes back to the same condition.
func TestPairGuardStaysOrTree(t *testing.T) {
	vl := vlanGuard([][2]uint64{{1, 10}, {1, 12}, {2, 10}, {2, 14}, {3, 30}})
	p := Compile(sefl.Seq(sefl.Constrain{C: vl}, sefl.Forward{Port: 0}), "e", 0, "t")
	if c := p.Ops[0].C; c.Kind != cOr || c.IT != nil {
		t.Fatalf("pair guard lowered: kind=%d", c.Kind)
	}
	if its := GuardTables(p); len(its) != 0 {
		t.Fatalf("GuardTables reports %d tables for a pair guard", len(its))
	}
	w, err := sefl.EncodeInstr(sefl.Constrain{C: vl})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.C.Cs) != 5 || len(w.C.Rows) != 0 {
		t.Fatalf("pair guard shipped %d child nodes and %d row words, want a 5-disjunct tree", len(w.C.Cs), len(w.C.Rows))
	}
	d, err := sefl.DecodeInstr(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, sefl.Constrain{C: vl}) {
		t.Fatalf("pair guard round trip differs:\n got %v\nwant %v", d, vl)
	}
}

func errEqual(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestITRowsPackRoundTrip: the flat row stream is the exact inverse of the
// row list, including exclusions.
func TestITRowsPackRoundTrip(t *testing.T) {
	rows := []expr.GuardRow{
		{Kind: expr.GuardEq, V: 42},
		{Kind: expr.GuardPrefix, V: 0x0a000000, Len: 24},
		{Kind: expr.GuardPrefix, V: 0x0a010000, Len: 16, Excl: []expr.GuardExcl{{V: 0x0a010200, Len: 24}, {V: 0x0a010300, Len: 24}}},
		{Kind: expr.GuardEq, V: 7, Excl: []expr.GuardExcl{{V: 0x0a, Len: 8}}},
	}
	got, err := expr.UnpackGuardRows(expr.PackGuardRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, rows)
	}
	// Truncated streams error instead of panicking.
	words := expr.PackGuardRows(rows)
	for _, cut := range []int{1, 3, len(words) - 1} {
		if _, err := expr.UnpackGuardRows(words[:cut]); err == nil {
			t.Errorf("truncated stream (%d words) decoded without error", cut)
		}
	}
	// Unknown tags error; 4 was the retired two-field pair row.
	for _, tag := range []uint64{4, 5, 1 << 63} {
		if _, err := expr.UnpackGuardRows([]uint64{tag, 3, 99}); err == nil || !strings.Contains(err.Error(), "unknown guard-row tag") {
			t.Errorf("tag %d: err = %v, want an unknown-tag error", tag, err)
		}
	}
}

// TestITableCodecRoundTrip: a program with lowered guards (equalities,
// prefixes with exclusions) compiles, from source that crossed the wire, to
// identical nodes, span tables and dump.
func TestITableCodecRoundTrip(t *testing.T) {
	src := sefl.Seq(
		sefl.Constrain{C: macGuard(8)},
		sefl.Constrain{C: prefixGuard()},
		sefl.Forward{Port: 0},
	)
	p := Compile(src, "e1", 4, "e1.in[0]")
	q := viaWire(t, src, "e1", 4, "e1.in[0]")
	if q.String() != p.String() {
		t.Fatal("the member's dump differs")
	}
	for i := range []int{0, 1} {
		oc, dc := p.Ops[i].C, q.Ops[i].C
		if dc.Kind != cIntervalTable || !deepEqualCond(dc, oc) {
			t.Fatalf("op %d: node drifted: %+v", i, dc)
		}
		if !tablesEqual(dc.IT.Table, oc.IT.Table) {
			t.Fatalf("op %d: span table drifted", i)
		}
	}
}

func TestGuardTables(t *testing.T) {
	p := Compile(sefl.Seq(sefl.Constrain{C: macGuard(4)}, sefl.Forward{Port: 0}), "el", 0, "el.out[0]")
	its := GuardTables(p)
	if len(its) != 1 || its[0].Table == nil {
		t.Fatalf("GuardTables returned %d tables", len(its))
	}
	if its[0] != p.Ops[0].C.IT {
		t.Fatal("GuardTables returned a different table than the guard node")
	}
}
