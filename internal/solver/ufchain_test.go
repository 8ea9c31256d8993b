package solver

import (
	"testing"

	"symnet/internal/expr"
)

// TestFindLongChainCompresses is the regression test for the old recursive
// find: it built union chains that were re-walked on every lookup and could
// recurse as deep as the chain. The iterative find must resolve a
// 10k-symbol chain, write path compression back (so the second lookup is
// O(1)), and keep offsets exact.
func TestFindLongChainCompresses(t *testing.T) {
	const n = 10000
	const w = 32
	c := NewContext(nil)
	// Chain value(s_i) = value(s_{i+1}) + 1: each union parents s_i under
	// s_{i+1}, leaving a maximal-length parent chain from s_0 to s_n.
	for i := 0; i < n; i++ {
		ok := c.Add(expr.NewCmp(expr.Eq,
			expr.Lin{Sym: expr.SymID(i), Width: w},
			expr.Lin{Sym: expr.SymID(i + 1), Add: 1, Width: w}))
		if !ok {
			t.Fatalf("chain link %d refuted", i)
		}
	}
	root, off := c.find(0)
	if root != expr.SymID(n) {
		t.Fatalf("find(0) root = %d, want %d", root, n)
	}
	if off != n {
		t.Fatalf("find(0) offset = %d, want %d", off, n)
	}
	// Path compression must have been written back: every walked symbol now
	// points directly at the root.
	for _, s := range []expr.SymID{0, 1, n / 2, n - 1} {
		e, ok := c.uf.Get(s)
		if !ok {
			t.Fatalf("symbol %d missing from union-find", s)
		}
		if e.parent != root {
			t.Fatalf("symbol %d parent = %d after find, want root %d (no compression)", s, e.parent, root)
		}
	}
	// Offsets stay exact through compression: pin the root and check a
	// distant member's domain.
	if !c.Add(expr.NewCmp(expr.Eq, expr.Lin{Sym: expr.SymID(n), Width: w}, expr.Const(5, w))) {
		t.Fatal("pinning root refuted")
	}
	d := c.Domain(expr.Lin{Sym: 0, Width: w})
	if v, ok := d.Min(); !ok || v != n+5 || d.Size() != 1 {
		t.Fatalf("Domain(s_0) = %s, want {%d}", d, n+5)
	}
	if !c.Sat() {
		t.Fatal("chain context must be satisfiable")
	}
}

// TestFindChainClonesIndependent: compression writes on one clone must not
// affect the other clone's results (structure sharing is read-only).
func TestFindChainClonesIndependent(t *testing.T) {
	const n = 1000
	const w = 16
	c := NewContext(nil)
	for i := 0; i < n; i++ {
		c.Add(expr.NewCmp(expr.Eq,
			expr.Lin{Sym: expr.SymID(i), Width: w},
			expr.Lin{Sym: expr.SymID(i + 1), Add: 1, Width: w}))
	}
	a := c.CloneInto(new(Context))
	b := c.CloneInto(new(Context))
	// Compress on a only.
	if r, _ := a.find(0); r != expr.SymID(n) {
		t.Fatalf("clone a root = %d", r)
	}
	// b, untouched, still resolves correctly.
	if r, off := b.find(0); r != expr.SymID(n) || off != n {
		t.Fatalf("clone b find(0) = (%d,%d), want (%d,%d)", r, off, n, n)
	}
	// Diverge the clones and check isolation end to end.
	if !a.Add(expr.NewCmp(expr.Eq, expr.Lin{Sym: expr.SymID(n), Width: w}, expr.Const(1, w))) {
		t.Fatal("a pin refuted")
	}
	if !b.Add(expr.NewCmp(expr.Eq, expr.Lin{Sym: expr.SymID(n), Width: w}, expr.Const(2, w))) {
		t.Fatal("b pin refuted")
	}
	da := a.Domain(expr.Lin{Sym: 0, Width: w})
	db := b.Domain(expr.Lin{Sym: 0, Width: w})
	if va, _ := da.Min(); va != n+1 {
		t.Fatalf("a Domain(s_0) = %s", da)
	}
	if vb, _ := db.Min(); vb != n+2 {
		t.Fatalf("b Domain(s_0) = %s", db)
	}
}
