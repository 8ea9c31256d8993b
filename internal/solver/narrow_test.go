package solver

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"symnet/internal/expr"
)

// The exhaustive small-width check of domain narrowing. At widths 3 to 6,
// every single-symbol atom the solver narrows a domain with — the six
// comparisons against constants inside and outside the universe, from
// either side; prefix matches of every length and value; span-table
// membership; each negated too — is asserted on terms whose offsets wrap,
// over untracked and tracked prior domains and over symbols unioned with an
// offset. Every context is compared with brute-force enumeration of its
// symbols' values, and with the path that narrows through a built set
// (addViaSets): same domains, verdicts, fingerprints and domain-map writes.

// narrowSyms are the two symbols every case is over: a (ID 0) and b (ID 1).
func narrowSyms(w int) (a, b expr.Lin) {
	var al expr.Alloc
	return al.Fresh(w), al.Fresh(w)
}

// valueOf evaluates a term under the assignment vals (indexed by SymID).
func valueOf(l expr.Lin, vals [2]uint64) uint64 {
	if v, ok := l.ConstVal(); ok {
		return v
	}
	return (vals[l.Sym] + l.Add) & expr.Mask(l.Width)
}

// holds evaluates a condition concretely.
func holds(cond expr.Cond, vals [2]uint64) bool {
	switch v := cond.(type) {
	case expr.Bool:
		return bool(v)
	case expr.Not:
		return !holds(v.C, vals)
	case expr.Cmp:
		return expr.EvalCmp(v.Op, valueOf(v.L, vals), valueOf(v.R, vals))
	case expr.Match:
		return valueOf(v.L, vals)&v.Mask == v.Val
	case expr.InSet:
		return v.T.Contains(valueOf(v.L, vals))
	}
	panic(fmt.Sprintf("holds: %T", cond))
}

// enumSet is the set of the width-bit values in admits, by enumeration.
func enumSet(width int, admits func(uint64) bool) *IntervalSet {
	var ivs []interval
	for v := uint64(0); v <= expr.Mask(width); v++ {
		if !admits(v) {
			continue
		}
		if n := len(ivs); n > 0 && ivs[n-1].Hi+1 == v {
			ivs[n-1].Hi = v
		} else {
			ivs = append(ivs, interval{Lo: v, Hi: v})
		}
	}
	return &IntervalSet{Width: width, ivs: ivs}
}

// addViaSets asserts cond as Add does, except that every single-symbol
// comparison against a constant and every prefix match is narrowed through
// its solution set, enumerated and handed to assertTermInSet, and every
// table membership through fromSpanTable: the set-building path the direct
// narrowing (assertArc, assertInTable) replaces.
func addViaSets(c *Context, cond expr.Cond) bool {
	if c.unsat {
		return false
	}
	c.run.stats.Adds++
	c.fp = c.fp.Chain(expr.HashCond(cond))
	c.nAdds++
	assertViaSets(c, cond, false)
	return !c.unsat
}

func assertViaSets(c *Context, cond expr.Cond, neg bool) {
	if c.unsat {
		return
	}
	switch v := cond.(type) {
	case expr.Not:
		assertViaSets(c, v.C, !neg)
	case expr.Cmp:
		op, l, r := v.Op, v.L, v.R
		if neg {
			op = op.Negate()
		}
		if l.IsConst() && !r.IsConst() {
			l, r, op = r, l, op.Flip()
		}
		rv, rConst := r.ConstVal()
		if !rConst || l.IsConst() {
			c.assertCmp(op, l, r)
			return
		}
		sols := enumSet(l.Width, func(x uint64) bool { return expr.EvalCmp(op, x, rv) })
		c.assertTermInSet(bare(l), sols.shift(-l.Add))
	case expr.Match:
		m := expr.Mask(v.L.Width)
		set := enumSet(v.L.Width, func(x uint64) bool { return x&v.Mask&m == v.Val&v.Mask&m })
		if neg {
			set = set.complement()
		}
		c.assertTermInSet(v.L, set)
	case expr.InSet:
		set := fromSpanTable(v.T)
		if neg {
			set = set.complement()
		}
		c.assertTermInSet(v.L, set)
	default:
		c.assert(cond, neg)
	}
}

// domainWrites lists, sorted, the roots whose domain entry differs between
// before and after: added, replaced or deleted.
func domainWrites(before, after *Context) []expr.SymID {
	var out []expr.SymID
	after.domains.Range(func(s expr.SymID, d *IntervalSet) bool {
		if old, ok := before.domains.Get(s); !ok || old != d {
			out = append(out, s)
		}
		return true
	})
	before.domains.Range(func(s expr.SymID, _ *IntervalSet) bool {
		if _, ok := after.domains.Get(s); !ok {
			out = append(out, s)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// narrowCase is one context under test: the direct path (got) and the
// set-building path (ref) after the same conditions, and the assignments of
// the first syms symbols (a, or a and b) those conditions admit. wrote
// reports whether the last condition wrote a domain.
type narrowCase struct {
	w, syms  int
	got, ref *Context
	feasible [][2]uint64
	wrote    bool
}

// newNarrowCase asserts conds, over the first syms symbols only, on fresh
// contexts both ways.
func newNarrowCase(t *testing.T, w, syms int, conds []expr.Cond) *narrowCase {
	t.Helper()
	nc := &narrowCase{w: w, syms: syms, got: NewContext(nil), ref: NewContext(nil)}
	ys := uint64(0)
	if syms == 2 {
		ys = expr.Mask(w)
	}
	for x := uint64(0); x <= expr.Mask(w); x++ {
		for y := uint64(0); y <= ys; y++ {
			nc.feasible = append(nc.feasible, [2]uint64{x, y})
		}
	}
	for _, cond := range conds {
		nc = nc.add(t, cond)
	}
	return nc
}

// add asserts cond on clones of the case's contexts, checks them against
// each other and against enumeration, and returns the new case.
func (nc *narrowCase) add(t *testing.T, cond expr.Cond) *narrowCase {
	t.Helper()
	next := &narrowCase{
		w:    nc.w,
		syms: nc.syms,
		got:  nc.got.CloneInto(new(Context)),
		ref:  nc.ref.CloneInto(new(Context)),
	}
	for _, vals := range nc.feasible {
		if holds(cond, vals) {
			next.feasible = append(next.feasible, vals)
		}
	}
	gotOK := next.got.Add(cond)
	refOK := addViaSets(next.ref, cond)
	switch {
	case gotOK != refOK || next.got.Unsat() != next.ref.Unsat():
		t.Fatalf("w=%d %s: Add %v, set path %v", nc.w, cond, gotOK, refOK)
	case gotOK != (len(next.feasible) > 0):
		t.Fatalf("w=%d %s: Add %v, %d assignments left", nc.w, cond, gotOK, len(next.feasible))
	case next.got.Fingerprint() != next.ref.Fingerprint():
		t.Fatalf("w=%d %s: fingerprints differ", nc.w, cond)
	}
	gw, rw := domainWrites(nc.got, next.got), domainWrites(nc.ref, next.ref)
	if !slices.Equal(gw, rw) {
		t.Fatalf("w=%d %s: domains written %v, set path %v", nc.w, cond, gw, rw)
	}
	next.wrote = len(gw) > 0
	if !gotOK {
		return next
	}
	var seen [2][]bool
	for i := range seen {
		seen[i] = make([]bool, expr.Mask(nc.w)+1)
	}
	for _, vals := range next.feasible {
		seen[0][vals[0]], seen[1][vals[1]] = true, true
	}
	a, b := narrowSyms(nc.w)
	for i, s := range []expr.Lin{a, b}[:nc.syms] {
		want := enumSet(nc.w, func(v uint64) bool { return seen[i][v] })
		got, ref := next.got.Domain(s), next.ref.Domain(s)
		if got.Width != nc.w || !setsEqual(got, want) || !setsEqual(got, ref) {
			t.Fatalf("w=%d %s: Domain(%s) = %v, enumeration %v, set path %v", nc.w, cond, s, got, want, ref)
		}
	}
	return next
}

// narrowAdds are the offsets atoms put on their term: all of them up to
// width 4, and from 5 on the ones next to the wrap and the middle.
func narrowAdds(w int) []uint64 {
	m := expr.Mask(w)
	if w <= 4 {
		adds := make([]uint64, 0, m+1)
		for k := uint64(0); k <= m; k++ {
			adds = append(adds, k)
		}
		return adds
	}
	return []uint64{0, 1, 2, m / 2, m/2 + 1, m - 1, m}
}

// narrowTables are the span tables the membership atoms test: one span,
// several, a single value, both ends of the universe, the universe itself.
func narrowTables(w int) []*expr.SpanTable {
	m := expr.Mask(w)
	return []*expr.SpanTable{
		expr.NewSpanTable(w, []expr.Span{span(2, m/2)}),
		expr.NewSpanTable(w, []expr.Span{span(1, 1), span(3, m/2), span(m-1, m-1)}),
		expr.NewSpanTable(w, []expr.Span{span(5, 5)}),
		expr.NewSpanTable(w, []expr.Span{span(0, 1), span(m-2, m)}),
		expr.NewSpanTable(w, []expr.Span{span(0, m)}),
	}
}

// narrowAtoms lists every atom on term l the exhaustive check asserts.
func narrowAtoms(w int, l expr.Lin) []expr.Cond {
	m := expr.Mask(w)
	var out []expr.Cond
	for op := expr.Eq; op <= expr.Ge; op++ {
		for c := uint64(0); c <= m+2; c++ {
			k := expr.Const(c, w)
			if c > m {
				k = expr.Const(c, w+2) // outside l's universe
			}
			out = append(out, expr.Cmp{Op: op, L: l, R: k}, expr.Cmp{Op: op, L: k, R: l})
		}
	}
	for plen := 0; plen <= w; plen++ {
		for val := uint64(0); val <= m; val++ {
			if val&^expr.PrefixMask(plen, w) == 0 {
				out = append(out, expr.NewPrefix(l, val, plen), expr.NewNot(expr.NewPrefix(l, val, plen)))
			}
		}
	}
	for _, tab := range narrowTables(w) {
		out = append(out, expr.InSet{L: l, T: tab}, expr.NewNot(expr.InSet{L: l, T: tab}))
	}
	return out
}

func TestNarrowExhaustiveSmallWidths(t *testing.T) {
	for w := 3; w <= 6; w++ {
		m := expr.Mask(w)
		a, b := narrowSyms(w)
		priors := []struct {
			name  string
			syms  int
			conds []expr.Cond
		}{
			{"untracked", 1, nil},
			{"tracked full", 1, []expr.Cond{expr.NewCmp(expr.Le, a, expr.Const(m, w))}},
			{"tracked wrapping range", 1, []expr.Cond{expr.NewCmp(expr.Ge, a.AddConst(3), expr.Const(2, w))}},
			{"tracked table", 1, []expr.Cond{
				expr.NewInSet(a, expr.NewSpanTable(w, []expr.Span{span(0, 0), span(2, m/2), span(m, m)})),
			}},
			{"unioned with offset", 2, []expr.Cond{expr.NewCmp(expr.Eq, a, b.AddConst(5))}},
			{"unioned, root narrowed", 2, []expr.Cond{
				expr.NewCmp(expr.Eq, a.AddConst(2), b.AddConst(m)),
				expr.NewCmp(expr.Ne, b, expr.Const(2, w)),
			}},
		}
		for _, p := range priors {
			base := newNarrowCase(t, w, p.syms, p.conds)
			// Atoms narrowed by arc that change no domain, to show that
			// they write nothing the domain comparison cannot see either:
			// an unchanged domain written back copies a map spine.
			var unchanged []expr.Cond
			n := 0
			for _, add := range narrowAdds(w) {
				for _, atom := range narrowAtoms(w, a.AddConst(add)) {
					if !base.add(t, atom).wrote && byArc(atom) {
						unchanged = append(unchanged, atom)
					}
					n++
				}
			}
			var scratch Context
			allocs := testing.AllocsPerRun(1, func() {
				for _, atom := range unchanged {
					base.got.CloneInto(&scratch).Add(atom)
				}
			})
			t.Logf("width %d, %s: %d atoms, %d changing nothing (%.0f allocations)", w, p.name, n, len(unchanged), allocs)
			if allocs != 0 {
				t.Fatalf("width %d, %s: %.0f allocations asserting %d atoms that change no domain", w, p.name, allocs, len(unchanged))
			}
		}
	}
}

// byArc reports whether the solver narrows by atom through assertArc: a
// comparison with a constant or a prefix match, negated or not.
func byArc(atom expr.Cond) bool {
	if n, ok := atom.(expr.Not); ok {
		atom = n.C
	}
	switch atom.(type) {
	case expr.Cmp, expr.Match:
		return true
	}
	return false
}

// TestNarrowRandomSequences chains atoms on both symbols with unions
// between them, so narrowing meets every root shape a context can reach.
func TestNarrowRandomSequences(t *testing.T) {
	ops := []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
	for w := 3; w <= 6; w++ {
		m := expr.Mask(w)
		a, b := narrowSyms(w)
		tables := narrowTables(w)
		for seed := int64(0); seed < 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			term := func() expr.Lin {
				return []expr.Lin{a, b}[rng.Intn(2)].AddConst(uint64(rng.Intn(int(m) + 1)))
			}
			nc := newNarrowCase(t, w, 2, nil)
			for i := 0; i < 6 && !nc.got.Unsat(); i++ {
				var cond expr.Cond
				switch rng.Intn(5) {
				case 0:
					// A union; never negated, since a disequality between
					// symbols is decided by Sat, not by narrowing.
					nc = nc.add(t, expr.NewCmp(expr.Eq, term(), term()))
					continue
				case 1:
					k := expr.Const(uint64(rng.Intn(int(m)+3)), w+2)
					cond = expr.Cmp{Op: ops[rng.Intn(len(ops))], L: term(), R: k}
				case 2:
					cond = expr.NewPrefix(term(), uint64(rng.Intn(int(m)+1)), rng.Intn(w+1))
				default:
					cond = expr.InSet{L: term(), T: tables[rng.Intn(len(tables))]}
				}
				if rng.Intn(2) == 0 {
					cond = expr.NewNot(cond)
				}
				nc = nc.add(t, cond)
			}
		}
	}
}
