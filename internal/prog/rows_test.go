package prog

// Rows versus tree. A lowered guard is compiled from its rows alone; these
// tests pin everything computed from the rows to what the Or-tree, built the
// old way, would have given: the span table (against the per-exclusion
// Subtract the sweep replaced, kept here as the oracle), the node's
// fingerprint and derived state, the lazily built children, the wire, and
// PatchGuard.

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"symnet/internal/expr"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// rowSetBySubtraction is itRowSet as it was before the sweep: the head set
// minus each exclusion, one Subtract (Complement + Intersect) at a time.
func rowSetBySubtraction(r ITRow, w int) *solver.IntervalSet {
	var s *solver.IntervalSet
	switch r.Kind {
	case ITEq, ITPair:
		s = solver.Singleton(r.V, w)
	case ITPrefix:
		s = solver.FromMask(expr.PrefixMask(r.Len, w), r.V, w)
	}
	for _, e := range r.Excl {
		s = s.Subtract(solver.FromMask(expr.PrefixMask(e.Len, w), e.V, w))
	}
	return s
}

// tableBySubtraction is the non-grouped half of buildITable as it was.
func tableBySubtraction(rows []ITRow, w int) *expr.SpanTable {
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
func randRow(rng *rand.Rand, w int) ITRow {
	var r ITRow
	if rng.Intn(3) == 0 {
		r = ITRow{Kind: ITEq, V: rng.Uint64() & expr.Mask(w)}
	} else {
		v, plen := randPrefix(rng, w)
		r = ITRow{Kind: ITPrefix, V: v, Len: plen}
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
		r.Excl = append(r.Excl, ITExcl{V: v, Len: plen})
	}
	return r
}

func randRows(rng *rand.Rand, w, n int) []ITRow {
	rows := make([]ITRow, n)
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
				got, want := RowSolutionSet(r, w), rowSetBySubtraction(r, w).Intervals()
				if !slices.Equal(got, want) {
					t.Fatalf("w=%d row %+v:\n got %v\nwant %v", w, r, got, want)
				}
				if len(got) == 0 {
					emptied++
				} else if got[len(got)-1].Hi == expr.Mask(w) {
					topped++
				}
			}
			got, want := BuildGuardTable(rows, w), tableBySubtraction(rows, w)
			if !got.Equal(want) || got.Fp() != want.Fp() {
				t.Fatalf("w=%d rows %+v:\n got %v\nwant %v", w, rows, got, want)
			}
		}
		if emptied == 0 || topped == 0 {
			t.Fatalf("w=%d: generator too tame: %d empty rows, %d reaching the top of the range", w, emptied, topped)
		}
	}
}

// rowsGuard is the SEFL Or a model would write for the rows.
func rowsGuard(f, f2 sefl.Hdr, rows []ITRow) []sefl.Cond {
	ref, ref2 := sefl.Ref{LV: f}, sefl.Ref{LV: f2}
	prefix := func(v uint64, plen int) sefl.Cond {
		return sefl.Prefix{E: ref, Value: v, Len: plen, Width: f.Size}
	}
	cs := make([]sefl.Cond, len(rows))
	for i, r := range rows {
		var head sefl.Cond
		switch r.Kind {
		case ITPair:
			cs[i] = sefl.AndC(sefl.Eq(ref, sefl.CW(r.V, f.Size)), sefl.Eq(ref2, sefl.CW(r.V2, f2.Size)))
			continue
		case ITEq:
			head = sefl.Eq(ref, sefl.CW(r.V, f.Size))
		case ITPrefix:
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

// eagerOr compiles every disjunct the way the compiler compiles an Or it
// cannot lower and seals the Or over them: the tree a lowered guard used to
// be built from.
func eagerOr(cs []sefl.Cond) *CCond {
	c := &compiler{p: &Program{}, conds: make(map[expr.Fp][]*CCond)}
	or := &CCond{Kind: COr, Cs: make([]*CCond, len(cs))}
	for i, sub := range cs {
		or.Cs[i] = c.compileCond(sub)
	}
	or.FP = fpCond(or)
	finishCond(or)
	return or
}

func wireBytes(t *testing.T, p *Program) ([]byte, *WireProgram) {
	t.Helper()
	w, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w
}

func TestRowsMatchTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f2 := sefl.Hdr{Off: sefl.At(64), Size: 16, Name: "G"}
	memoizable, small := 0, 0
	for trial := 0; trial < 400; trial++ {
		w := []int{8, 32, 48, 64}[trial%4]
		f := sefl.Hdr{Off: sefl.At(0), Size: w, Name: "F"}
		n := 4 + rng.Intn(12) // four rows are a table (expr.TableSized) whatever their exclusions
		var rows []ITRow
		grouped := trial%5 == 4
		if grouped {
			for i := 0; i < n; i++ {
				rows = append(rows, ITRow{Kind: ITPair, V: uint64(rng.Intn(3)) & expr.Mask(w), V2: uint64(rng.Intn(40))})
			}
		} else {
			rows = randRows(rng, w, n)
		}
		cs := rowsGuard(f, f2, rows)
		guard := sefl.Constrain{C: sefl.OrC(cs...)}
		p := Compile(sefl.Seq(guard, sefl.Forward{Port: 0}), "el", 0, "el.out[1]")
		node := p.Ops[0].C
		if node.Kind != CIntervalTable || node.IT.Grouped != grouped || !reflect.DeepEqual(node.IT.Rows, rows) {
			t.Fatalf("trial %d: rows not read back off the Or: %+v", trial, node.IT)
		}
		if p.Conds != 1 || p.CondsSeen != 1 {
			t.Fatalf("trial %d: a lowered guard counts as one node, got %d/%d", trial, p.Conds, p.CondsSeen)
		}

		// Fingerprint and derived state, rows versus the eagerly compiled Or.
		or := eagerOr(cs)
		if node.FP != or.FP || node.Words != or.Words || node.HasSym != or.HasSym ||
			node.HasStatic != or.HasStatic || node.Memoizable != or.Memoizable ||
			!reflect.DeepEqual(node.Inputs, or.Inputs) {
			t.Fatalf("trial %d: from rows fp=%v words=%d sym=%v static=%v memo=%v inputs=%v\nfrom tree fp=%v words=%d sym=%v static=%v memo=%v inputs=%v",
				trial, node.FP, node.Words, node.HasSym, node.HasStatic, node.Memoizable, node.Inputs,
				or.FP, or.Words, or.HasSym, or.HasStatic, or.Memoizable, or.Inputs)
		}
		if node.Memoizable {
			memoizable++
		} else {
			small++
		}

		// The wire, before anything has asked for the view: stable under a
		// round trip.
		b1, w1 := wireBytes(t, p)
		q, err := DecodeProgram(w1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if b2, _ := wireBytes(t, q); !bytes.Equal(b1, b2) {
			t.Fatalf("trial %d: encode → decode → encode changed %d bytes into %d", trial, len(b1), len(b2))
		}
		if !deepEqualCond(q.Ops[0].C, node) || !reflect.DeepEqual(q.Ops[0].C.IT.Rows, rows) {
			t.Fatalf("trial %d: decoded guard differs", trial)
		}

		// The lazily built children against compiler-built ones.
		view := node.children()
		if len(view) != len(or.Cs) {
			t.Fatalf("trial %d: view has %d children, tree %d", trial, len(view), len(or.Cs))
		}
		for i := range view {
			if !deepEqualCond(view[i], or.Cs[i]) || !reflect.DeepEqual(view[i].Inputs, or.Cs[i].Inputs) {
				t.Fatalf("trial %d child %d: view differs from the compiled disjunct", trial, i)
			}
		}

		// PatchGuard to another row list == a fresh compile of that list.
		if !grouped {
			next := randRows(rng, w, 4+rng.Intn(12))
			nextGuard := sefl.Constrain{C: sefl.OrC(rowsGuard(f, f2, next)...)}
			patched := Compile(guard, "el", 0, "el.out[1]")
			spec := PatchSpec{OldFp: node.IT.Table.Fp(), Rows: next, Table: BuildGuardTable(next, w), Ins: nextGuard}
			if n := PatchGuard(patched, spec); n != 1 {
				t.Fatalf("trial %d: PatchGuard patched %d nodes", trial, n)
			}
			requireSameAsFresh(t, patched, nextGuard)
		}
	}
	if memoizable == 0 || small == 0 {
		t.Fatalf("generator too tame: %d memoizable guards, %d below the memo gate", memoizable, small)
	}
}

// TestViewBuiltOnceByConcurrentFallbacks: programs are shared across
// workers, so eight of them hitting the shape-drift fallback of a fresh
// program at once must build one view between them and agree on the answer.
// Run under -race.
func TestViewBuiltOnceByConcurrentFallbacks(t *testing.T) {
	// The field arrives 16 bits wide where the table was compiled for 48.
	drifted := func() *itEnv {
		return &itEnv{hdrs: map[int64]expr.Lin{0: {Sym: 7, Width: 16}}}
	}
	ref := drifted()
	ref.orTree = true
	want, err := EvalCond(ref, guardCond(t, macGuard(64)))
	if err != nil {
		t.Fatal(err)
	}

	c := guardCond(t, macGuard(64))
	before := itableFallbacks.Load()
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([]expr.Cond, workers)
	errs := make([]error, workers)
	first := make([]*CCond, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = EvalCond(drifted(), c)
			first[i] = c.children()[0]
		}()
	}
	close(start)
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if got[i].String() != want.String() {
			t.Fatalf("worker %d: fallback built %s, Or-tree reference %s", i, got[i], want)
		}
		if first[i] != first[0] {
			t.Fatalf("worker %d saw a second view", i)
		}
	}
	if n := itableFallbacks.Load() - before; n != workers {
		t.Fatalf("%d fallbacks counted, want %d", n, workers)
	}
}

// TestGuardTableLinear: building a table from a /0 row with k exclusions
// allocates the same number of times whatever k is — the sweep has no
// per-exclusion set, where Subtract allocated two per exclusion. A guard on
// scaling that does not read a clock.
func TestGuardTableLinear(t *testing.T) {
	allocs := func(k int) float64 {
		row := ITRow{Kind: ITPrefix}
		for i := 0; i < k; i++ {
			row.Excl = append(row.Excl, ITExcl{V: uint64(i) << 9, Len: 24}) // every other /24
		}
		rows := []ITRow{row}
		if got := BuildGuardTable(rows, 32).Len(); got != k {
			t.Fatalf("k=%d: table has %d spans", k, got)
		}
		return testing.AllocsPerRun(10, func() { BuildGuardTable(rows, 32) })
	}
	a, b, c := allocs(512), allocs(2048), allocs(8192)
	t.Logf("BuildGuardTable allocations: %.0f at k=512, %.0f at k=2048, %.0f at k=8192", a, b, c)
	if a != b || b != c {
		t.Fatalf("allocations grow with the number of exclusions: %.0f, %.0f, %.0f", a, b, c)
	}
}
