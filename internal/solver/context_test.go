package solver

import (
	"strings"
	"testing"

	"symnet/internal/expr"
)

func newTestCtx() (*Context, *expr.Alloc) {
	return NewContext(nil), &expr.Alloc{}
}

func TestContextBasicSat(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(32)
	if !c.Add(expr.NewCmp(expr.Eq, x, expr.Const(5, 32))) {
		t.Fatal("x == 5 must be satisfiable")
	}
	if !c.Sat() {
		t.Fatal("Sat after x == 5")
	}
	if c.Add(expr.NewCmp(expr.Eq, x, expr.Const(6, 32))) {
		t.Fatal("x == 5 && x == 6 must be unsat")
	}
}

func TestContextRangeConflict(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(16)
	c.Add(expr.NewCmp(expr.Lt, x, expr.Const(10, 16)))
	c.Add(expr.NewCmp(expr.Gt, x, expr.Const(5, 16)))
	if !c.Sat() {
		t.Fatal("5 < x < 10 must be sat")
	}
	if c.Add(expr.NewCmp(expr.Gt, x, expr.Const(9, 16))) {
		t.Fatal("adding x > 9 must refute")
	}
}

func TestContextSymSymEquality(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(32)
	y := a.Fresh(32)
	c.Add(expr.NewCmp(expr.Eq, x, y))
	c.Add(expr.NewCmp(expr.Eq, x, expr.Const(7, 32)))
	m, ok := c.Model()
	if !ok {
		t.Fatal("must be sat")
	}
	if m[x.Sym] != 7 || m[y.Sym] != 7 {
		t.Fatalf("model: x=%d y=%d, want both 7", m[x.Sym], m[y.Sym])
	}
}

func TestContextOffsetEquality(t *testing.T) {
	// x == y + 3, y == 10 => x == 13.
	c, a := newTestCtx()
	x := a.Fresh(8)
	y := a.Fresh(8)
	c.Add(expr.NewCmp(expr.Eq, x, y.AddConst(3)))
	c.Add(expr.NewCmp(expr.Eq, y, expr.Const(10, 8)))
	m, ok := c.Model()
	if !ok {
		t.Fatal("must be sat")
	}
	if m[x.Sym] != 13 {
		t.Fatalf("x = %d, want 13", m[x.Sym])
	}
}

func TestContextWraparound(t *testing.T) {
	// The DecIPTTL bug: ttl' = ttl - 1 with ttl == 0 wraps to 255,
	// so constraining ttl' >= 1 stays satisfiable.
	c, a := newTestCtx()
	ttl := a.Fresh(8)
	c.Add(expr.NewCmp(expr.Eq, ttl, expr.Const(0, 8)))
	dec := ttl.SubConst(1)
	if !c.Add(expr.NewCmp(expr.Ge, dec, expr.Const(1, 8))) {
		t.Fatal("wrap-around: ttl-1 >= 1 with ttl==0 must hold (255 >= 1)")
	}
	m, ok := c.Model()
	if !ok {
		t.Fatal("sat expected")
	}
	if got := (m[ttl.Sym] - 1) & 0xff; got != 255 {
		t.Fatalf("ttl-1 = %d, want 255", got)
	}
}

func TestContextDisequality(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(8)
	y := a.Fresh(8)
	c.Add(expr.NewCmp(expr.Ne, x, y))
	c.Add(expr.NewCmp(expr.Eq, x, expr.Const(1, 8)))
	c.Add(expr.NewCmp(expr.Eq, y, expr.Const(1, 8)))
	if c.Sat() {
		t.Fatal("x != y with x == y == 1 must be unsat")
	}
}

func TestContextDisequalityModel(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(2)
	y := a.Fresh(2)
	z := a.Fresh(2)
	w := a.Fresh(2)
	// Four variables in a 4-value domain, all pairwise distinct: sat.
	vars := []expr.Lin{x, y, z, w}
	for i := range vars {
		for j := i + 1; j < len(vars); j++ {
			c.Add(expr.NewCmp(expr.Ne, vars[i], vars[j]))
		}
	}
	m, ok := c.Model()
	if !ok {
		t.Fatal("4 distinct values in 2-bit domain must be sat")
	}
	seen := map[uint64]bool{}
	for _, v := range vars {
		if seen[m[v.Sym]] {
			t.Fatalf("model repeats value %d", m[v.Sym])
		}
		seen[m[v.Sym]] = true
	}
}

func TestContextPigeonhole(t *testing.T) {
	c, a := newTestCtx()
	// Five pairwise-distinct variables in a 4-value domain: unsat.
	vars := make([]expr.Lin, 5)
	for i := range vars {
		vars[i] = a.Fresh(2)
	}
	for i := range vars {
		for j := i + 1; j < len(vars); j++ {
			c.Add(expr.NewCmp(expr.Ne, vars[i], vars[j]))
		}
	}
	if c.Sat() {
		t.Fatal("pigeonhole 5-into-4 must be unsat")
	}
}

func TestContextDiseqAfterUnion(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(8)
	y := a.Fresh(8)
	c.Add(expr.NewCmp(expr.Ne, x, y))
	if c.Add(expr.NewCmp(expr.Eq, x, y)) && c.Sat() {
		t.Fatal("x != y then x == y must be unsat")
	}
}

func TestContextOrCompression(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(48)
	ors := make([]expr.Cond, 0, 1000)
	for i := 0; i < 1000; i++ {
		ors = append(ors, expr.NewCmp(expr.Eq, x, expr.Const(uint64(i*7), 48)))
	}
	c.Add(expr.NewOr(ors...))
	if c.PendingOrs() != 0 {
		t.Fatalf("same-symbol Or must compress, %d pending", c.PendingOrs())
	}
	if !c.Sat() {
		t.Fatal("compressed Or must be sat")
	}
	// Value outside the union must now conflict.
	if c.Add(expr.NewCmp(expr.Eq, x, expr.Const(3, 48))) {
		t.Fatal("x == 3 conflicts with the union of multiples of 7")
	}
}

func TestContextOrBranching(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(8)
	y := a.Fresh(8)
	// (x == 1 | y == 2) & x != 1 => y == 2.
	c.Add(expr.NewOr(
		expr.NewCmp(expr.Eq, x, expr.Const(1, 8)),
		expr.NewCmp(expr.Eq, y, expr.Const(2, 8)),
	))
	if c.PendingOrs() != 1 {
		t.Fatalf("cross-symbol Or must stay pending, got %d", c.PendingOrs())
	}
	c.Add(expr.NewCmp(expr.Ne, x, expr.Const(1, 8)))
	m, ok := c.Model()
	if !ok {
		t.Fatal("must be sat via y == 2 branch")
	}
	if m[y.Sym] != 2 {
		t.Fatalf("y = %d, want 2", m[y.Sym])
	}
}

func TestContextNegatedOr(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(8)
	// !(x == 1 | x == 2) => x != 1 && x != 2.
	c.Add(expr.NewNot(expr.NewOr(
		expr.NewCmp(expr.Eq, x, expr.Const(1, 8)),
		expr.NewCmp(expr.Eq, x, expr.Const(2, 8)),
	)))
	if !c.Sat() {
		t.Fatal("negated Or must be sat")
	}
	if c.Add(expr.NewCmp(expr.Eq, x, expr.Const(2, 8))) {
		t.Fatal("x == 2 must conflict")
	}
}

func TestContextPrefixMatch(t *testing.T) {
	c, a := newTestCtx()
	ip := a.Fresh(32)
	// ip in 192.168.0.0/16 and ip not in 192.168.1.0/24.
	base := uint64(192)<<24 | uint64(168)<<16
	c.Add(expr.NewPrefix(ip, base, 16))
	c.Add(expr.NewNot(expr.NewPrefix(ip, base|1<<8, 24)))
	m, ok := c.Model()
	if !ok {
		t.Fatal("sat expected")
	}
	v := m[ip.Sym]
	if v>>16 != base>>16 {
		t.Fatalf("model %#x outside /16", v)
	}
	if v>>8 == (base|1<<8)>>8 {
		t.Fatalf("model %#x inside excluded /24", v)
	}
}

// TestNonPrefixMatchPanics: every expr.Match is a prefix (NewPrefix is its
// one constructor). A hand-built Match with another mask is refused on every
// path into the solver, with the mask in the message.
func TestNonPrefixMatchPanics(t *testing.T) {
	var a expr.Alloc
	x := a.Fresh(8)
	m := expr.Match{L: x, Mask: 0xa0, Val: 0x80}
	for name, cond := range map[string]expr.Cond{
		"match":          m,
		"negated match":  expr.NewNot(m),
		"constant match": expr.Match{L: expr.Const(0x80, 8), Mask: 0xa0, Val: 0x80},
		"set of an Or":   expr.NewNot(expr.NewOr(m, expr.NewCmp(expr.Eq, x, expr.Const(3, 8)))),
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "mask 0xa0 is not a prefix mask") {
					t.Errorf("%s: panic %q, want one naming mask 0xa0", name, msg)
				}
			}()
			NewContext(nil).Add(cond)
		}()
	}
}

func TestContextLPMExclusion(t *testing.T) {
	// The paper's router compilation: for overlapping prefixes
	// 10.0.0.0/8 -> If0 and 10.10.0.1/32 -> If1, the If0 rule becomes
	// !(10.10.0.1/32) & 10.0.0.0/8.
	c, a := newTestCtx()
	ip := a.Fresh(32)
	host := uint64(10)<<24 | uint64(10)<<16 | 1
	c.Add(expr.NewPrefix(ip, 10<<24, 8))
	c.Add(expr.NewNot(expr.NewPrefix(ip, host, 32)))
	// The covered host must now be excluded.
	if c.Add(expr.NewCmp(expr.Eq, ip, expr.Const(host, 32))) {
		t.Fatal("host covered by the more-specific prefix must be excluded")
	}
}

func TestContextClone(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(8)
	c.Add(expr.NewCmp(expr.Gt, x, expr.Const(10, 8)))
	c2 := c.CloneInto(new(Context))
	c2.Add(expr.NewCmp(expr.Lt, x, expr.Const(5, 8)))
	if c2.Sat() {
		t.Fatal("clone with conflicting constraint must be unsat")
	}
	if !c.Sat() {
		t.Fatal("original must stay sat after clone diverges")
	}
}

func TestContextDomainProjection(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(8)
	c.Add(expr.NewCmp(expr.Ge, x, expr.Const(10, 8)))
	c.Add(expr.NewCmp(expr.Le, x, expr.Const(20, 8)))
	d := c.Domain(x)
	if mn, _ := d.Min(); mn != 10 {
		t.Fatalf("min = %d", mn)
	}
	if mx, _ := d.Max(); mx != 20 {
		t.Fatalf("max = %d", mx)
	}
	// Projection of x+5 shifts the domain.
	d5 := c.Domain(x.AddConst(5))
	if mn, _ := d5.Min(); mn != 15 {
		t.Fatalf("shifted min = %d", mn)
	}
}

func TestContextRelCmpSymSym(t *testing.T) {
	c, a := newTestCtx()
	x := a.Fresh(8)
	y := a.Fresh(8)
	c.Add(expr.NewCmp(expr.Lt, x, y))
	c.Add(expr.NewCmp(expr.Eq, y, expr.Const(3, 8)))
	m, ok := c.Model()
	if !ok {
		t.Fatal("x < y == 3 must be sat")
	}
	if m[x.Sym] >= 3 {
		t.Fatalf("x = %d, want < 3", m[x.Sym])
	}
	// x < y with y == 0 must be unsat (unsigned).
	c2, a2 := newTestCtx()
	x2 := a2.Fresh(8)
	y2 := a2.Fresh(8)
	c2.Add(expr.NewCmp(expr.Lt, x2, y2))
	c2.Add(expr.NewCmp(expr.Eq, y2, expr.Const(0, 8)))
	if c2.Sat() {
		t.Fatal("x < 0 unsigned must be unsat")
	}
}

func TestContextModelDeterminism(t *testing.T) {
	build := func() (map[expr.SymID]uint64, bool) {
		c, a := newTestCtx()
		x := a.Fresh(16)
		y := a.Fresh(16)
		c.Add(expr.NewCmp(expr.Gt, x, expr.Const(100, 16)))
		c.Add(expr.NewCmp(expr.Ne, x, y))
		c.Add(expr.NewCmp(expr.Ge, y, expr.Const(100, 16)))
		return c.Model()
	}
	m1, ok1 := build()
	m2, ok2 := build()
	if !ok1 || !ok2 {
		t.Fatal("sat expected")
	}
	for k, v := range m1 {
		if m2[k] != v {
			t.Fatalf("nondeterministic model: %v vs %v", m1, m2)
		}
	}
}

func TestContextStats(t *testing.T) {
	st := &Stats{}
	c := NewContext(st)
	var a expr.Alloc
	x := a.Fresh(8)
	c.Add(expr.NewCmp(expr.Eq, x, expr.Const(1, 8)))
	c.Sat()
	if st.Adds != 1 || st.SatChecks != 1 {
		t.Fatalf("stats not collected: %+v", st)
	}
}
