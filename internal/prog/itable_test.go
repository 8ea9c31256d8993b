package prog

import (
	"reflect"
	"testing"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/sefl"
)

var (
	itMAC  = sefl.Hdr{Off: sefl.At(0), Size: 48, Name: "Mac"}
	itVLAN = sefl.Hdr{Off: sefl.At(48), Size: 16, Name: "Vlan"}
	itIP   = sefl.Hdr{Off: sefl.At(64), Size: 32, Name: "Ip"}
)

func macGuard(n int) sefl.Cond {
	cs := make([]sefl.Cond, n)
	for i := range cs {
		cs[i] = sefl.Eq(sefl.Ref{LV: itMAC}, sefl.CW(uint64(i*2), 48))
	}
	return sefl.OrC(cs...)
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

func prefixGuard() sefl.Cond {
	dst := sefl.Ref{LV: itIP}
	return sefl.OrC(
		sefl.Prefix{E: dst, Value: 0x0a000000, Len: 24, Width: 32},
		sefl.Prefix{E: dst, Value: 0x0a000100, Len: 24, Width: 32},
		sefl.AndC(
			sefl.Prefix{E: dst, Value: 0x0a010000, Len: 16, Width: 32},
			sefl.NotC(sefl.Prefix{E: dst, Value: 0x0a010200, Len: 24, Width: 32}),
		),
		sefl.Prefix{E: dst, Value: 0x0b000000, Len: 8, Width: 32},
	)
}

func guardCond(t *testing.T, c sefl.Cond) *CCond {
	t.Helper()
	p := Compile(sefl.Seq(sefl.Constrain{C: c}, sefl.Forward{Port: 0}), "e", 0, "t")
	return p.Ops[0].C
}

// itEnv is a minimal Env whose header reads come from a fixed map.
type itEnv struct {
	hdrs   map[int64]expr.Lin
	orTree bool
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
func (e *itEnv) Fresh(w int, n string) expr.Lin { return expr.Lin{Sym: 99, Width: w} }
func (e *itEnv) OrTreeGuards() bool             { return e.orTree }

// TestLoweringDetection: the egress shapes lower, near-miss shapes do not.
func TestLoweringDetection(t *testing.T) {
	if c := guardCond(t, macGuard(8)); c.Kind != CIntervalTable || c.IT == nil || c.IT.Grouped {
		t.Fatalf("mac guard not lowered: kind=%d", c.Kind)
	}
	if c := guardCond(t, prefixGuard()); c.Kind != CIntervalTable || c.IT.Grouped {
		t.Fatalf("prefix guard not lowered: kind=%d", c.Kind)
	}
	if c := guardCond(t, vlanGuard([][2]uint64{{1, 10}, {1, 12}, {2, 10}, {2, 14}})); c.Kind != CIntervalTable || !c.IT.Grouped {
		t.Fatalf("vlan guard not lowered/grouped: kind=%d", c.Kind)
	}

	// Below the atom threshold (expr.TableSized): stays an Or.
	if c := guardCond(t, macGuard(3)); c.Kind != COr {
		t.Fatalf("tiny guard lowered: kind=%d", c.Kind)
	}
	// The gate counts atoms, not disjuncts: one route with three exclusions
	// is a table, one with two is not.
	dst := sefl.Ref{LV: itIP}
	oneRoute := func(k int) sefl.Cond {
		conj := []sefl.Cond{sefl.Prefix{E: dst, Value: 0, Len: 0, Width: 32}}
		for i := 0; i < k; i++ {
			conj = append(conj, sefl.NotC(sefl.Prefix{E: dst, Value: uint64(10+i) << 24, Len: 8, Width: 32}))
		}
		return sefl.OrC(sefl.AndC(conj...))
	}
	if c := guardCond(t, oneRoute(3)); c.Kind != CIntervalTable || len(c.IT.Rows) != 1 {
		t.Fatalf("one route, three exclusions not lowered: kind=%d", c.Kind)
	}
	if c := guardCond(t, oneRoute(2)); c.Kind != COr {
		t.Fatalf("one route, two exclusions lowered: kind=%d", c.Kind)
	}
	// Mixed fields in a single-field shape: stays an Or.
	mixed := sefl.OrC(
		sefl.Eq(sefl.Ref{LV: itMAC}, sefl.CW(1, 48)),
		sefl.Eq(sefl.Ref{LV: itVLAN}, sefl.CW(2, 16)),
		sefl.Eq(sefl.Ref{LV: itMAC}, sefl.CW(3, 48)),
		sefl.Eq(sefl.Ref{LV: itMAC}, sefl.CW(4, 48)),
	)
	if c := guardCond(t, mixed); c.Kind != COr {
		t.Fatalf("mixed-field guard lowered: kind=%d", c.Kind)
	}
	// Adaptive-width constants (W == 0) cannot pin coercion: stays an Or.
	loose := sefl.OrC(
		sefl.Eq(sefl.Ref{LV: itMAC}, sefl.C(1)),
		sefl.Eq(sefl.Ref{LV: itMAC}, sefl.C(2)),
		sefl.Eq(sefl.Ref{LV: itMAC}, sefl.C(3)),
		sefl.Eq(sefl.Ref{LV: itMAC}, sefl.C(4)),
	)
	if c := guardCond(t, loose); c.Kind != COr {
		t.Fatalf("adaptive-width guard lowered: kind=%d", c.Kind)
	}
	// Metadata reads are not table fields.
	meta := sefl.Ref{LV: sefl.Meta{Name: "m"}}
	metaOr := sefl.OrC(
		sefl.Eq(meta, sefl.CW(1, 16)), sefl.Eq(meta, sefl.CW(2, 16)),
		sefl.Eq(meta, sefl.CW(3, 16)), sefl.Eq(meta, sefl.CW(4, 16)),
	)
	if c := guardCond(t, metaOr); c.Kind != COr {
		t.Fatalf("metadata guard lowered: kind=%d", c.Kind)
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
	dup := sefl.OrC(
		sefl.Eq(sefl.Ref{LV: itMAC}, sefl.CW(5, 48)),
		sefl.Eq(sefl.Ref{LV: itMAC}, sefl.CW(5, 48)),
		sefl.Eq(sefl.Ref{LV: itMAC}, sefl.CW(6, 48)),
		sefl.Eq(sefl.Ref{LV: itMAC}, sefl.CW(7, 48)),
	)
	if c := guardCond(t, dup); c.IT.Table.Len() != 1 || !c.IT.Table.Contains(5) || !c.IT.Table.Contains(7) {
		t.Fatalf("duplicate/adjacent spans = %v", c.IT.Table)
	}
}

// TestEvalTableModes: table evaluation matches the Or-tree reference on
// concrete hits/misses, produces InSet on symbolic fields, falls back on
// width drift, and handles group misses and single-entry groups.
func TestEvalTableModes(t *testing.T) {
	mac := guardCond(t, macGuard(8))
	env := &itEnv{hdrs: map[int64]expr.Lin{0: expr.Const(6, 48)}}
	ref := &itEnv{hdrs: env.hdrs, orTree: true}

	got, err := EvalCond(env, mac)
	if err != nil || got != expr.Bool(true) {
		t.Fatalf("concrete hit = %v, %v", got, err)
	}
	want, err := EvalCond(ref, mac)
	if err != nil || got != want {
		t.Fatalf("reference disagrees: %v vs %v", got, want)
	}
	env.hdrs[0] = expr.Const(5, 48) // odd values are not in the table
	got, _ = EvalCond(env, mac)
	want, _ = EvalCond(ref, mac)
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

	// Width drift falls back to the Or-tree (here: 16-bit value in a 48-bit
	// field errs identically in both modes via constant coercion).
	env.hdrs[0] = expr.Lin{Sym: 4, Width: 16}
	got, gotErr := EvalCond(env, mac)
	want, wantErr := EvalCond(ref, mac)
	if !reflect.DeepEqual(got, want) || !errEqual(gotErr, wantErr) {
		t.Fatalf("width-drift: table (%v, %v) vs reference (%v, %v)", got, gotErr, want, wantErr)
	}

	// Missing field read errors identically.
	delete(env.hdrs, 0)
	_, gotErr = EvalCond(env, mac)
	_, wantErr = EvalCond(ref, mac)
	if gotErr == nil || !errEqual(gotErr, wantErr) {
		t.Fatalf("read error: %v vs %v", gotErr, wantErr)
	}

	// Grouped: group hit (single-entry group), group miss (empty table for
	// that key), symbolic group field falls back.
	vl := guardCond(t, vlanGuard([][2]uint64{{1, 10}, {2, 20}, {2, 22}, {3, 30}}))
	genv := &itEnv{hdrs: map[int64]expr.Lin{48: expr.Const(1, 16), 0: expr.Lin{Sym: 7, Width: 48}}}
	gref := &itEnv{hdrs: genv.hdrs, orTree: true}
	got, err = EvalCond(genv, vl)
	if err != nil {
		t.Fatal(err)
	}
	if is, ok := got.(expr.InSet); !ok || is.T.Len() != 1 || !is.T.Contains(10) {
		t.Fatalf("single-entry group = %#v", got)
	}
	genv.hdrs[48] = expr.Const(9, 16) // no such vlan: empty table
	got, _ = EvalCond(genv, vl)
	want, _ = EvalCond(gref, vl)
	if got != expr.Bool(false) || want != got {
		t.Fatalf("group miss = %v, reference %v", got, want)
	}
	genv.hdrs[48] = expr.Lin{Sym: 8, Width: 16} // symbolic group field
	got, err = EvalCond(genv, vl)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(expr.Or); !ok {
		t.Fatalf("symbolic group field should fall back to the Or-tree, got %#v", got)
	}
}

func errEqual(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestITRowsPackRoundTrip: the flat row stream is the exact inverse of the
// row list, including exclusions and pairs.
func TestITRowsPackRoundTrip(t *testing.T) {
	rows := []ITRow{
		{Kind: ITEq, V: 42},
		{Kind: ITPrefix, V: 0x0a000000, Len: 24},
		{Kind: ITPrefix, V: 0x0a010000, Len: 16, Excl: []ITExcl{{V: 0x0a010200, Len: 24}, {V: 0x0a010300, Len: 24}}},
		{Kind: ITEq, V: 7, Excl: []ITExcl{{V: 0x0a, Len: 8}}},
		{Kind: ITPair, V: 3, V2: 99},
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
}

// TestITableCodecRoundTrip: a program with lowered guards (single-field,
// exclusions, grouped) survives the wire with identical fingerprints,
// tables, children and dump.
func TestITableCodecRoundTrip(t *testing.T) {
	prog := sefl.Seq(
		sefl.Constrain{C: macGuard(8)},
		sefl.Constrain{C: prefixGuard()},
		sefl.Constrain{C: vlanGuard([][2]uint64{{1, 10}, {1, 12}, {2, 20}, {3, 30}})},
		sefl.Constrain{C: macGuard(8)}, // dedup: same node as op 0
		sefl.Forward{Port: 0},
	)
	p := Compile(prog, "e1", 4, "e1.in[0]")
	if p.Ops[0].C != p.Ops[3].C {
		t.Fatal("premise: equal lowered guards must share one node")
	}
	w, err := EncodeProgram(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	q, err := DecodeProgram(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if q.String() != p.String() {
		t.Fatal("decoded dump differs")
	}
	for i := range []int{0, 1, 2} {
		oc, dc := p.Ops[i].C, q.Ops[i].C
		if dc.Kind != CIntervalTable || dc.FP != oc.FP || dc.Words != oc.Words || dc.Memoizable != oc.Memoizable {
			t.Fatalf("op %d: node drifted: %+v", i, dc)
		}
		if !reflect.DeepEqual(dc.IT.Rows, oc.IT.Rows) {
			t.Fatalf("op %d: rows drifted", i)
		}
		if oc.IT.Table != nil && !dc.IT.Table.Equal(oc.IT.Table) {
			t.Fatalf("op %d: span table drifted", i)
		}
		ocs, dcs := oc.children(), dc.children()
		if len(dcs) != len(ocs) || len(ocs) != len(oc.IT.Rows) {
			t.Fatalf("op %d: children count drifted", i)
		}
		for j := range ocs {
			if dcs[j].FP != ocs[j].FP {
				t.Fatalf("op %d child %d: fingerprint drifted", i, j)
			}
		}
	}
	if q.Ops[0].C != q.Ops[3].C {
		t.Fatal("decoded equal guards no longer share one node")
	}
	gq, gp := q.Ops[2].C.IT, p.Ops[2].C.IT
	if len(gq.Groups) != len(gp.Groups) {
		t.Fatal("group count drifted")
	}
	for gi := range gp.Groups {
		if gq.Groups[gi].Key != gp.Groups[gi].Key || !gq.Groups[gi].Table.Equal(gp.Groups[gi].Table) {
			t.Fatalf("group %d drifted", gi)
		}
	}
}

// TestPackedWireShrinksCondTab: a lowered guard ships as one wire
// condition-table entry carrying its rows, not one node per disjunct.
func TestPackedWireShrinksCondTab(t *testing.T) {
	p := Compile(sefl.Seq(sefl.Constrain{C: macGuard(64)}, sefl.Forward{Port: 0}), "e", 0, "t")
	w, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.CondTab) != 1 {
		t.Fatalf("cond table has %d entries, want 1", len(w.CondTab))
	}
	if wc := w.CondTab[0]; len(wc.Cs) != 0 || len(wc.ITRows) == 0 {
		t.Fatalf("lowered guard shipped %d children and %d row words, want rows only", len(wc.Cs), len(wc.ITRows))
	}
}
