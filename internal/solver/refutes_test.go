package solver

import (
	"testing"

	"symnet/internal/expr"
)

// refutesCovered reports whether Refutes decides cond on c: a Bool, a
// comparison with at most one symbolic side, an InSet of a term its root
// offset does not shift, the negation of a Bool or comparison, or anything
// on a refuted context. On these Refutes(cond) must equal !Add(cond).
func refutesCovered(c *Context, cond expr.Cond) bool {
	if c.Unsat() {
		return true
	}
	if n, ok := cond.(expr.Not); ok {
		switch n.C.(type) {
		case expr.Bool, expr.Cmp:
			cond = n.C
		default:
			return false
		}
	}
	switch v := cond.(type) {
	case expr.Bool:
		return true
	case expr.Cmp:
		return v.L.IsConst() || v.R.IsConst()
	case expr.InSet:
		if v.L.IsConst() {
			return false
		}
		_, off := c.root(v.L.Sym)
		return -(off+v.L.Add)&expr.Mask(v.L.Width) == 0
	}
	return false
}

// ufEntries copies the union-find store, so a test can show it unchanged.
func ufEntries(c *Context) map[expr.SymID]ufEntry {
	out := make(map[expr.SymID]ufEntry)
	c.uf.Range(func(s expr.SymID, e ufEntry) bool {
		out[s] = e
		return true
	})
	return out
}

// refutesConds lists the conditions TestRefutesAgreesWithAdd asks about
// terms of a and b: narrowAtoms on a at every offset narrowAdds gives (so
// tables are shifted and unshifted), the same on b, constants of either
// truth, comparisons between the two symbols, and every one of them under
// an explicit Not (NewNot folds a comparison's negation into its operator,
// so the Not form is built by hand).
func refutesConds(w int, a, b expr.Lin) []expr.Cond {
	conds := []expr.Cond{expr.Bool(true), expr.Bool(false)}
	for _, add := range narrowAdds(w) {
		conds = append(conds, narrowAtoms(w, a.AddConst(add))...)
		conds = append(conds, narrowAtoms(w, b.AddConst(add))...)
		conds = append(conds,
			expr.Cmp{Op: expr.Eq, L: a, R: b.AddConst(add)},
			expr.Cmp{Op: expr.Lt, L: a.AddConst(add), R: b})
	}
	conds = append(conds, expr.Cmp{Op: expr.Le, L: expr.Const(3, w), R: expr.Const(2, w)})
	for _, c := range conds[:len(conds):len(conds)] {
		conds = append(conds, expr.Not{C: c})
	}
	return conds
}

// TestRefutesAgreesWithAdd checks the engine's pre-clone test against Add,
// exhaustively at widths 3 to 6 over the narrowing check's priors (plus a
// refuted context): a condition Refutes refutes is one Add refutes, and on
// the forms Refutes covers it refutes every condition Add does. Refutes
// writes neither the union-find nor the domain store, and allocates nothing.
func TestRefutesAgreesWithAdd(t *testing.T) {
	for w := 3; w <= 6; w++ {
		m := expr.Mask(w)
		a, b := narrowSyms(w)
		priors := []struct {
			name  string
			conds []expr.Cond
		}{
			{"untracked", nil},
			{"tracked full", []expr.Cond{expr.NewCmp(expr.Le, a, expr.Const(m, w))}},
			{"tracked wrapping range", []expr.Cond{expr.NewCmp(expr.Ge, a.AddConst(3), expr.Const(2, w))}},
			{"tracked table", []expr.Cond{
				expr.NewInSet(a, expr.NewSpanTable(w, []expr.Span{span(0, 0), span(2, m/2), span(m, m)})),
			}},
			{"unioned with offset", []expr.Cond{expr.NewCmp(expr.Eq, a, b.AddConst(5))}},
			{"unioned, root narrowed", []expr.Cond{
				expr.NewCmp(expr.Eq, a.AddConst(2), b.AddConst(m)),
				expr.NewCmp(expr.Ne, b, expr.Const(2, w)),
			}},
			{"refuted", []expr.Cond{expr.NewCmp(expr.Lt, a, expr.Const(0, w))}},
		}
		conds := refutesConds(w, a, b)
		for _, p := range priors {
			base := NewContext(nil)
			for _, c := range p.conds {
				base.Add(c)
			}
			uf, stats := ufEntries(base), *base.run.stats
			covered, refuted := 0, 0
			for _, cond := range conds {
				got := base.Refutes(cond)
				want := !base.CloneInto(new(Context)).Add(cond)
				switch {
				case got && !want:
					t.Fatalf("w=%d %s: Refutes(%s), but Add admits it", w, p.name, cond)
				case refutesCovered(base, cond):
					covered++
					if got != want {
						t.Fatalf("w=%d %s: Add refutes %s, Refutes does not", w, p.name, cond)
					}
				}
				if got {
					refuted++
				}
			}
			// Add counted into the shared collector; Refutes must not have.
			*base.run.stats = stats
			before := *base
			allocs := testing.AllocsPerRun(1, func() {
				for _, cond := range conds {
					base.Refutes(cond)
				}
			})
			if allocs != 0 {
				t.Fatalf("w=%d %s: Refutes allocated %.0f times over %d conditions", w, p.name, allocs, len(conds))
			}
			if ws := domainWrites(&before, base); len(ws) != 0 {
				t.Fatalf("w=%d %s: Refutes wrote the domains of %v", w, p.name, ws)
			}
			after := ufEntries(base)
			if len(after) != len(uf) {
				t.Fatalf("w=%d %s: Refutes changed the union-find from %d entries to %d", w, p.name, len(uf), len(after))
			}
			for s, e := range uf {
				if after[s] != e {
					t.Fatalf("w=%d %s: Refutes rewrote the union-find entry of s%d", w, p.name, s)
				}
			}
			if *base.run.stats != stats || base.Fingerprint() != before.Fingerprint() {
				t.Fatalf("w=%d %s: Refutes counted or chained an Add", w, p.name)
			}
			if w == 3 {
				t.Logf("%s: %d conditions, %d covered, %d refuted", p.name, len(conds), covered, refuted)
			}
		}
	}
}
