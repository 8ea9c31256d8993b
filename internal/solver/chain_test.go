package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"symnet/internal/expr"
)

// chainSat decides a script of comparisons over four width-w symbols by
// enumeration: symbols are assigned in order, and each comparison is
// checked once every symbol it names has a value.
func chainSat(conds []expr.Cmp, w int) bool {
	m := expr.Mask(w)
	// at[s] holds the comparisons whose highest symbol is s.
	var at [4][]expr.Cmp
	for _, c := range conds {
		s := expr.SymID(0)
		for _, l := range []expr.Lin{c.L, c.R} {
			if !l.IsConst() && l.Sym > s {
				s = l.Sym
			}
		}
		at[s] = append(at[s], c)
	}
	var vals [4]uint64
	val := func(l expr.Lin) uint64 {
		if v, ok := l.ConstVal(); ok {
			return v
		}
		return (vals[l.Sym] + l.Add) & m
	}
	var assign func(s expr.SymID) bool
	assign = func(s expr.SymID) bool {
		if s == 4 {
			return true
		}
	next:
		for v := uint64(0); v <= m; v++ {
			vals[s] = v
			for _, c := range at[s] {
				if !expr.EvalCmp(c.Op, val(c.L), val(c.R)) {
					continue next
				}
			}
			if assign(s + 1) {
				return true
			}
		}
		return false
	}
	return assign(0)
}

// checkChain asserts conds on a fresh context and compares Sat with
// enumeration; a satisfiable script's Model must satisfy every condition.
func checkChain(t *testing.T, tag string, conds []expr.Cmp, w int) {
	t.Helper()
	c := NewContext(nil)
	for _, cond := range conds {
		c.Add(cond)
	}
	want := chainSat(conds, w)
	if got := c.Sat(); got != want {
		t.Fatalf("%s: Sat %v, enumeration %v: %v", tag, got, want, conds)
	}
	if !want {
		return
	}
	m, ok := c.Model()
	if !ok {
		t.Fatalf("%s: no model for a satisfiable script: %v", tag, conds)
	}
	for _, cond := range conds {
		if !evalUnder(cond, m) {
			t.Fatalf("%s: model %v violates %s", tag, m, cond)
		}
	}
}

// TestOrderingChainsMatchEnumeration: orderings that chain three or more
// symbols must not run the search out of budget on a satisfiable context.
// The named script (width 5) is satisfied by (29, 30, 29, 31) alone, which
// a minimum-first search in a fixed class order, checking each ordering
// only once both its classes had values, never reached within its budget.
// 3 000 random four-symbol scripts at width 5, of orderings between two
// symbols and comparisons with constants, agree with enumeration.
func TestOrderingChainsMatchEnumeration(t *testing.T) {
	const w = 5
	s := func(id expr.SymID, add uint64) expr.Lin { return expr.Lin{Sym: id, Add: add, Width: w} }
	checkChain(t, "s0+1 > s2, s1+1 > s0+1, s2+2 >= s3+1, s3 <= s2+2, s3 >= s2+2", []expr.Cmp{
		{Op: expr.Gt, L: s(0, 1), R: s(2, 0)},
		{Op: expr.Gt, L: s(1, 1), R: s(0, 1)},
		{Op: expr.Ge, L: s(2, 2), R: s(3, 1)},
		{Op: expr.Le, L: s(3, 0), R: s(2, 2)},
		{Op: expr.Ge, L: s(3, 0), R: s(2, 2)},
	}, w)
	orderings := []expr.CmpOp{expr.Lt, expr.Le, expr.Gt, expr.Ge}
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sym := func() expr.Lin { return s(expr.SymID(rng.Intn(4)), uint64(rng.Intn(3))) }
		var conds []expr.Cmp
		for i, n := 0, 2+rng.Intn(5); i < n; i++ {
			if rng.Intn(3) == 0 {
				conds = append(conds, expr.Cmp{Op: expr.CmpOp(rng.Intn(6)), L: sym(), R: expr.Const(uint64(rng.Intn(32)), w)})
				continue
			}
			conds = append(conds, expr.Cmp{Op: orderings[rng.Intn(4)], L: sym(), R: sym()})
		}
		checkChain(t, fmt.Sprintf("seed %d", seed), conds, w)
	}
}
