package prog

// Rows versus tree. A lowered guard is compiled from its rows alone; these
// tests pin everything computed from the rows to what the Or-tree would have
// given: the span table (against the per-exclusion Subtract the sweep
// replaced, kept here as the oracle), the node's derived state, its value on
// concrete fields and the wire.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"symnet/internal/expr"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// rowSetBySubtraction is itRowSet as it was before the sweep: the head set
// minus each exclusion, one Subtract (Complement + Intersect) at a time.
func rowSetBySubtraction(r itRow, w int) *solver.IntervalSet {
	var s *solver.IntervalSet
	switch r.Kind {
	case itEq:
		s = solver.Singleton(r.V, w)
	case itPrefix:
		s = solver.FromMask(expr.PrefixMask(r.Len, w), r.V, w)
	}
	for _, e := range r.Excl {
		s = s.Subtract(solver.FromMask(expr.PrefixMask(e.Len, w), e.V, w))
	}
	return s
}

// tableBySubtraction is buildITable as it was.
func tableBySubtraction(rows []itRow, w int) *expr.SpanTable {
	sets := make([]*solver.IntervalSet, len(rows))
	for i, r := range rows {
		sets[i] = rowSetBySubtraction(r, w)
	}
	return expr.NewSpanTable(w, solver.UnionAll(w, sets).Intervals())
}

// randPrefix draws a prefix of a w-bit field, biased towards both ends of
// the value space so that ranges ending at 2^w-1 (2^64-1 for w = 64) occur.
func randPrefix(rng *rand.Rand, w int) (uint64, int) {
	plen := rng.Intn(w + 1)
	v := rng.Uint64()
	switch rng.Intn(4) {
	case 0:
		v = ^uint64(0)
	case 1:
		v = 0
	}
	// Keep a few host bits set now and then: rows carry what the model
	// wrote, masked or not.
	if rng.Intn(4) != 0 {
		v &= expr.PrefixMask(plen, w)
	}
	return v & expr.Mask(w), plen
}

// randRow draws a single-field row: equality, prefix, either with
// exclusions that nest, repeat, overlap the head's edge or miss it.
func randRow(rng *rand.Rand, w int) itRow {
	var r itRow
	if rng.Intn(3) == 0 {
		r = itRow{Kind: itEq, V: rng.Uint64() & expr.Mask(w)}
	} else {
		v, plen := randPrefix(rng, w)
		r = itRow{Kind: itPrefix, V: v, Len: plen}
	}
	if rng.Intn(2) == 0 {
		return r
	}
	for k := 1 + rng.Intn(12); k > 0; k-- {
		v, plen := randPrefix(rng, w)
		switch {
		case rng.Intn(3) != 0:
			// Inside the head, at least as long: the LPM shape.
			plen = r.Len + rng.Intn(w-r.Len+1)
			v = r.V&expr.PrefixMask(r.Len, w) | v&^expr.PrefixMask(r.Len, w)
		case len(r.Excl) > 0 && rng.Intn(2) == 0:
			// Nested in (or equal to) an earlier exclusion.
			e := r.Excl[rng.Intn(len(r.Excl))]
			plen = e.Len + rng.Intn(w-e.Len+1)
			v = e.V&expr.PrefixMask(e.Len, w) | v&^expr.PrefixMask(e.Len, w)
		}
		r.Excl = append(r.Excl, expr.GuardExcl{V: v, Len: plen})
	}
	return r
}

func randRows(rng *rand.Rand, w, n int) []itRow {
	rows := make([]itRow, n)
	for i := range rows {
		rows[i] = randRow(rng, w)
	}
	return rows
}

func TestRowSweepMatchesSubtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range []int{8, 32, 48, 64} {
		emptied, topped := 0, 0
		for trial := 0; trial < 3000; trial++ {
			rows := randRows(rng, w, 1+rng.Intn(6))
			for _, r := range rows {
				var scratch []expr.Span
				got, want := appendRowSpans(nil, &r, w, &scratch), rowSetBySubtraction(r, w).Intervals()
				if !slices.Equal(got, want) {
					t.Fatalf("w=%d row %+v:\n got %v\nwant %v", w, r, got, want)
				}
				if len(got) == 0 {
					emptied++
				} else if got[len(got)-1].Hi == expr.Mask(w) {
					topped++
				}
			}
			got, want := buildITable(rows, w), tableBySubtraction(rows, w)
			if !tablesEqual(got, want) || got.Fp() != want.Fp() {
				t.Fatalf("w=%d rows %+v:\n got %v\nwant %v", w, rows, got, want)
			}
		}
		if emptied == 0 || topped == 0 {
			t.Fatalf("w=%d: generator too tame: %d empty rows, %d reaching the top of the range", w, emptied, topped)
		}
	}
}

// rowsGuard is the SEFL Or a model would write for the rows by hand.
func rowsGuard(f sefl.Hdr, rows []itRow) []sefl.Cond {
	ref := sefl.Ref{LV: f}
	prefix := func(v uint64, plen int) sefl.Cond {
		return sefl.Prefix{E: ref, Value: v, Len: plen, Width: f.Size}
	}
	cs := make([]sefl.Cond, len(rows))
	for i, r := range rows {
		var head sefl.Cond
		switch r.Kind {
		case itEq:
			head = sefl.Eq(ref, sefl.CW(r.V, f.Size))
		case itPrefix:
			head = prefix(r.V, r.Len)
		}
		if len(r.Excl) > 0 {
			conj := []sefl.Cond{head}
			for _, e := range r.Excl {
				conj = append(conj, sefl.NotC(prefix(e.V, e.Len)))
			}
			head = sefl.AndC(conj...)
		}
		cs[i] = head
	}
	return cs
}

// TestRowsMatchTree: a lowered table against the Or-tree it stands for,
// both the hand-written tree (rowsGuard) and the table's own Or: same
// derived state, the span table the per-exclusion subtraction gives, the
// same value at every span edge, the same rendering, the same guard from
// source that crossed the wire.
func TestRowsMatchTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		w := []int{8, 32, 48, 64}[trial%4]
		f := sefl.Hdr{Off: sefl.Off{Rel: 0}, Size: w, Name: "F"}
		rows := randRows(rng, w, 4+rng.Intn(12)) // four rows are a table (expr.TableSized) whatever their exclusions
		tb := sefl.Table{F: f, Rows: rows}
		guard := sefl.Constrain{C: tb}
		p := Compile(sefl.Seq(guard, sefl.Forward{Port: 0}), "el", 0, "el.out[1]")
		node := p.Ops[0].C
		if node.Kind != cIntervalTable || !reflect.DeepEqual(node.IT.Rows, rows) {
			t.Fatalf("trial %d: table not lowered from its rows: %+v", trial, node.IT)
		}
		if p.Conds != 1 || p.CondsSeen != 1 {
			t.Fatalf("trial %d: a lowered guard counts as one node, got %d/%d", trial, p.Conds, p.CondsSeen)
		}
		if !tablesEqual(node.IT.Table, tableBySubtraction(rows, w)) {
			t.Fatalf("trial %d: span table differs from the subtraction oracle", trial)
		}

		// Derived state against the hand-written Or and against the table's
		// Or, both compiled as trees.
		refs := map[string]*cCond{}
		for name, ref := range map[string]sefl.Cond{"hand-written": sefl.COr{Cs: rowsGuard(f, rows)}, "Or()": tb.Or()} {
			refs[name] = Compile(sefl.Seq(sefl.Constrain{C: ref}, sefl.Forward{Port: 0}), "el", 0, "el.out[1]").Ops[0].C
		}
		for name, ref := range refs {
			if ref.Kind != cOr || node.HasStatic != ref.HasStatic {
				t.Fatalf("trial %d: from rows static=%v\n%s tree kind=%d static=%v",
					trial, node.HasStatic, name, ref.Kind, ref.HasStatic)
			}
		}
		if got, want := guard.String(), (sefl.Constrain{C: tb.Or()}).String(); got != want {
			t.Fatalf("trial %d: the table renders\n %s\nits tree\n %s", trial, got, want)
		}

		// The wire, before anything has asked for the view: the source
		// crosses and compiles to the same guard.
		q := viaWire(t, sefl.Seq(guard, sefl.Forward{Port: 0}), "el", 0, "el.out[1]")
		if !deepEqualCond(q.Ops[0].C, node) || !reflect.DeepEqual(q.Ops[0].C.IT.Rows, rows) {
			t.Fatalf("trial %d: the guard compiled from the wire differs", trial)
		}

		// A concrete field at every span edge and just outside it: the
		// table's membership test against both trees' folded value.
		for _, sp := range node.IT.Table.Spans() {
			for _, v := range []uint64{sp.Lo - 1, sp.Lo, sp.Hi, sp.Hi + 1} {
				env := &itEnv{hdrs: map[int64]expr.Lin{0: expr.Const(v&expr.Mask(w), w)}}
				got, err := EvalCond(env, node)
				if err != nil {
					t.Fatalf("trial %d: table at %#x: %v", trial, v, err)
				}
				for name, ref := range refs {
					if want, err := EvalCond(env, ref); err != nil || got != want {
						t.Fatalf("trial %d: at %#x the table reads %v, the %s tree %v (%v)", trial, v, got, name, want, err)
					}
				}
			}
		}
	}
}

// TestGuardTableLinear: building a table from a /0 row with k exclusions
// allocates the same number of times whatever k is — the sweep has no
// per-exclusion set, where Subtract allocated two per exclusion. A guard on
// scaling that does not read a clock.
func TestGuardTableLinear(t *testing.T) {
	allocs := func(k int) float64 {
		row := itRow{Kind: itPrefix}
		for i := 0; i < k; i++ {
			row.Excl = append(row.Excl, expr.GuardExcl{V: uint64(i) << 9, Len: 24}) // every other /24
		}
		rows := []itRow{row}
		if got := len(buildITable(rows, 32).Spans()); got != k {
			t.Fatalf("k=%d: table has %d spans", k, got)
		}
		return testing.AllocsPerRun(10, func() { buildITable(rows, 32) })
	}
	a, b, c := allocs(512), allocs(2048), allocs(8192)
	t.Logf("buildITable allocations: %.0f at k=512, %.0f at k=2048, %.0f at k=8192", a, b, c)
	if a != b || b != c {
		t.Fatalf("allocations grow with the number of exclusions: %.0f, %.0f, %.0f", a, b, c)
	}
}

// tablesEqual reports canonical-form equality of two span tables.
func tablesEqual(a, b *expr.SpanTable) bool {
	return a.Width() == b.Width() && slices.Equal(a.Spans(), b.Spans())
}

// deepEqualCond is structural equality across two programs' hash-consing
// domains (equalCCond compares children by pointer, which only works within
// one compile). Node fingerprints cover the leaf expressions.
func deepEqualCond(a, b *cCond) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.FP != b.FP || a.HasStatic != b.HasStatic ||
		a.StaticErr != b.StaticErr {
		return false
	}
	if a.Op != b.Op || a.Val != b.Val || a.Mask != b.Mask ||
		a.PLen != b.PLen || a.PW != b.PW || a.B != b.B || a.Key != b.Key {
		return false
	}
	if (a.IT == nil) != (b.IT == nil) || a.IT != nil && (a.IT.F != b.IT.F ||
		!reflect.DeepEqual(a.IT.Rows, b.IT.Rows) || !tablesEqual(a.IT.Table, b.IT.Table)) {
		return false
	}
	if len(a.Cs) != len(b.Cs) {
		return false
	}
	for i := range a.Cs {
		if !deepEqualCond(a.Cs[i], b.Cs[i]) {
			return false
		}
	}
	return deepEqualCond(a.C, b.C)
}
