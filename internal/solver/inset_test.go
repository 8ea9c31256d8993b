package solver

import (
	"testing"

	"symnet/internal/expr"
)

func span(lo, hi uint64) expr.Span { return expr.Span{Lo: lo, Hi: hi} }

// TestInSetMatchesEquivalentOr: asserting a packed table must leave exactly
// the domain the equivalent Or-tree assertion leaves, including with an
// additive offset on the term, and under negation.
func TestInSetMatchesEquivalentOr(t *testing.T) {
	tab := expr.NewSpanTable(16, []expr.Span{span(10, 20), span(30, 30), span(40, 50)})
	orOf := func(l expr.Lin) expr.Cond {
		var cs []expr.Cond
		for _, s := range tab.Spans() {
			cs = append(cs,
				expr.NewAnd(expr.NewCmp(expr.Ge, l, expr.Const(s.Lo, 16)),
					expr.NewCmp(expr.Le, l, expr.Const(s.Hi, 16))))
		}
		return expr.NewOr(cs...)
	}
	for _, add := range []uint64{0, 7} {
		for _, neg := range []bool{false, true} {
			l := expr.Lin{Sym: 1, Add: add, Width: 16}
			ci := NewContext(nil)
			co := NewContext(nil)
			inSet := expr.Cond(expr.InSet{L: l, T: tab})
			orTree := orOf(l)
			if neg {
				inSet = expr.NewNot(inSet)
				orTree = expr.NewNot(orTree)
			}
			ci.Add(inSet)
			co.Add(orTree)
			if !co.Sat() || !ci.Sat() {
				t.Fatalf("add=%d neg=%v: unexpected unsat", add, neg)
			}
			di := ci.Domain(l)
			do := co.Domain(l)
			if !setsEqual(di, do) {
				t.Errorf("add=%d neg=%v: InSet domain %v != Or domain %v", add, neg, di, do)
			}
		}
	}
}

// TestInSetStraddlesIntervalEdge: a symbolic field constrained by a table
// and then pushed across a span boundary flips between sat and unsat at
// exactly the edge values.
func TestInSetStraddlesIntervalEdge(t *testing.T) {
	tab := expr.NewSpanTable(16, []expr.Span{span(10, 20), span(40, 50)})
	l := expr.Lin{Sym: 1, Width: 16}
	check := func(extra expr.Cond, wantSat bool) {
		t.Helper()
		c := NewContext(nil)
		c.Add(expr.InSet{L: l, T: tab})
		c.Add(extra)
		if got := c.Sat(); got != wantSat {
			t.Errorf("with %v: sat = %v, want %v", extra, got, wantSat)
		}
	}
	check(expr.NewCmp(expr.Le, l, expr.Const(9, 16)), false)  // below first span
	check(expr.NewCmp(expr.Le, l, expr.Const(10, 16)), true)  // exactly the low edge
	check(expr.NewCmp(expr.Ge, l, expr.Const(20, 16)), true)  // high edge of span 1
	check(expr.NewCmp(expr.Gt, l, expr.Const(50, 16)), false) // above last span
	// The gap between the spans is excluded...
	check(expr.NewAnd(
		expr.NewCmp(expr.Gt, l, expr.Const(20, 16)),
		expr.NewCmp(expr.Lt, l, expr.Const(40, 16))), false)
	// ...and a window straddling an edge keeps only the in-span part.
	c := NewContext(nil)
	c.Add(expr.InSet{L: l, T: tab})
	c.Add(expr.NewAnd(
		expr.NewCmp(expr.Ge, l, expr.Const(18, 16)),
		expr.NewCmp(expr.Le, l, expr.Const(42, 16))))
	want := &IntervalSet{Width: 16, ivs: []interval{span(18, 20), span(40, 42)}}
	if got := c.Domain(l); !setsEqual(got, want) {
		t.Errorf("straddling window domain = %v, want %v", got, want)
	}
	// A model lands on a boundary value (minimum-first).
	m, ok := c.Model()
	if !ok || m[1] != 18 {
		t.Errorf("model = %v (ok=%v), want sym1=18", m, ok)
	}
}

// TestInSetSingleAndEmpty: one-entry tables behave like equalities; the
// empty table is never built as InSet (NewInSet folds it), but a direct
// assertion of an empty-set membership refutes the context.
func TestInSetSingleAndEmpty(t *testing.T) {
	single := expr.NewSpanTable(16, []expr.Span{span(7, 7)})
	l := expr.Lin{Sym: 2, Width: 16}
	c := NewContext(nil)
	c.Add(expr.InSet{L: l, T: single})
	if d := c.Domain(l); d.Size() != 1 || !d.Contains(7) {
		t.Errorf("single-entry domain = %v, want {7}", d)
	}
	c2 := NewContext(nil)
	c2.Add(expr.InSet{L: l, T: expr.NewSpanTable(16, nil)})
	if !c2.Unsat() {
		t.Error("empty-table membership must refute the context")
	}
}

// TestFromSpanTableZeroCopy pins the representation contract: the
// IntervalSet view shares the table's span slice.
func TestFromSpanTableZeroCopy(t *testing.T) {
	tab := expr.NewSpanTable(16, []expr.Span{span(1, 2), span(4, 6)})
	s := fromSpanTable(tab)
	if s.Width != 16 || len(s.Intervals()) != 2 {
		t.Fatalf("view = %v", s)
	}
	if &s.Intervals()[0] != &tab.Spans()[0] {
		t.Error("FromSpanTable must not copy the span slice")
	}
	// Operations on the view must not mutate the table.
	_ = s.complement()
	_ = s.intersect(fromRange(0, 5, 16))
	if !tab.Contains(6) || tab.Contains(3) {
		t.Error("table mutated by set operations on its view")
	}
}
