package solver

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"symnet/internal/expr"
)

func TestIntervalSetBasics(t *testing.T) {
	full := full(8)
	if got := full.Size(); got != 256 {
		t.Fatalf("Full(8).Size() = %d, want 256", got)
	}
	if !full.Contains(0) || !full.Contains(255) {
		t.Fatal("Full(8) must contain 0 and 255")
	}
	e := empty(8)
	if !e.isEmpty() || e.Contains(0) {
		t.Fatal("Empty(8) must be empty")
	}
	s := Singleton(42, 8)
	if s.Size() != 1 || !s.Contains(42) || s.Contains(41) {
		t.Fatalf("Singleton broken: %v", s)
	}
}

func TestIntervalSetUnionIntersect(t *testing.T) {
	a := fromRange(10, 20, 8)
	b := fromRange(15, 30, 8)
	u := UnionAll(8, []*IntervalSet{a, b})
	if u.Size() != 21 || !u.Contains(10) || !u.Contains(30) || u.Contains(31) {
		t.Fatalf("union: %v", u)
	}
	i := a.intersect(b)
	if i.Size() != 6 || !i.Contains(15) || !i.Contains(20) || i.Contains(21) {
		t.Fatalf("intersect: %v", i)
	}
	// Adjacent intervals merge.
	c := UnionAll(8, []*IntervalSet{fromRange(0, 4, 8), fromRange(5, 9, 8)})
	if len(c.Intervals()) != 1 {
		t.Fatalf("adjacent intervals should merge: %v", c)
	}
}

func TestIntervalSetComplement(t *testing.T) {
	a := fromRange(10, 20, 8)
	cmp := a.complement()
	if cmp.Contains(10) || cmp.Contains(20) || !cmp.Contains(9) || !cmp.Contains(21) {
		t.Fatalf("complement: %v", cmp)
	}
	if got := cmp.Size(); got != 256-11 {
		t.Fatalf("complement size = %d", got)
	}
	if !setsEqual(a.complement().complement(), a) {
		t.Fatal("double complement must be identity")
	}
	if !full(8).complement().isEmpty() {
		t.Fatal("complement of full must be empty")
	}
	if !empty(8).complement().isFull() {
		t.Fatal("complement of empty must be full")
	}
}

func TestIntervalSetShiftWraps(t *testing.T) {
	a := fromRange(250, 255, 8)
	sh := a.shift(10)
	// 250..255 + 10 = 260..265 mod 256 = 4..9
	if !sh.Contains(4) || !sh.Contains(9) || sh.Contains(3) || sh.Contains(10) {
		t.Fatalf("wrapping shift: %v", sh)
	}
	// shift must be invertible.
	if !setsEqual(sh.shift(246), a) { // 246 == -10 mod 256

		t.Fatal("shift must be invertible")
	}
}

func TestFromCmp(t *testing.T) {
	cases := []struct {
		op   expr.CmpOp
		c    uint64
		has  []uint64
		lack []uint64
	}{
		{expr.Eq, 7, []uint64{7}, []uint64{6, 8}},
		{expr.Ne, 7, []uint64{6, 8, 0, 255}, []uint64{7}},
		{expr.Lt, 7, []uint64{0, 6}, []uint64{7, 8}},
		{expr.Le, 7, []uint64{0, 7}, []uint64{8}},
		{expr.Gt, 7, []uint64{8, 255}, []uint64{7, 0}},
		{expr.Ge, 7, []uint64{7, 255}, []uint64{6}},
	}
	for _, tc := range cases {
		s := fromCmp(tc.op, tc.c, 8)
		for _, v := range tc.has {
			if !s.Contains(v) {
				t.Errorf("FromCmp(%v,%d) should contain %d", tc.op, tc.c, v)
			}
		}
		for _, v := range tc.lack {
			if s.Contains(v) {
				t.Errorf("FromCmp(%v,%d) should not contain %d", tc.op, tc.c, v)
			}
		}
	}
	if !fromCmp(expr.Lt, 0, 8).isEmpty() {
		t.Error("x < 0 must be empty (unsigned)")
	}
	if !fromCmp(expr.Gt, 255, 8).isEmpty() {
		t.Error("x > 255 must be empty at width 8")
	}
}

func TestPrefixArc(t *testing.T) {
	// 10.0.0.0/8 over 32-bit values.
	lo, hi := prefixArc(expr.PrefixMask(8, 32), 10<<24, 32)
	set := fromRange(lo, hi, 32)
	if !set.Contains(10<<24) || !set.Contains(10<<24|0xffffff) {
		t.Fatal("prefix must include network and broadcast addresses")
	}
	if set.Contains(11 << 24) {
		t.Fatal("prefix must exclude next network")
	}
	if got := set.Size(); got != 1<<24 {
		t.Fatalf("10/8 size = %d, want 2^24", got)
	}
	if len(set.Intervals()) != 1 {
		t.Fatalf("prefix mask must yield a single interval, got %d", len(set.Intervals()))
	}
}

// Property: union/intersect/complement behave like their set-theoretic
// counterparts on a brute-force byte universe.
func TestIntervalSetQuickSetSemantics(t *testing.T) {
	mk := func(seed int64) (*IntervalSet, map[uint64]bool) {
		rng := rand.New(rand.NewSource(seed))
		set := empty(8)
		ref := make(map[uint64]bool)
		for i := 0; i < rng.Intn(5); i++ {
			lo := uint64(rng.Intn(256))
			hi := lo + uint64(rng.Intn(40))
			if hi > 255 {
				hi = 255
			}
			set = UnionAll(8, []*IntervalSet{set, fromRange(lo, hi, 8)})
			for v := lo; v <= hi; v++ {
				ref[v] = true
			}
		}
		return set, ref
	}
	f := func(seedA, seedB int64) bool {
		sa, ra := mk(seedA)
		sb, rb := mk(seedB)
		u := UnionAll(8, []*IntervalSet{sa, sb})
		in := sa.intersect(sb)
		sub := sa.Subtract(sb)
		for v := uint64(0); v < 256; v++ {
			if u.Contains(v) != (ra[v] || rb[v]) {
				return false
			}
			if in.Contains(v) != (ra[v] && rb[v]) {
				return false
			}
			if sub.Contains(v) != (ra[v] && !rb[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fromBits builds the canonical set of a 6-bit universe's membership mask.
func fromBits(m uint64) *IntervalSet {
	var ivs []interval
	for v := uint64(0); v < 64; v++ {
		if m>>v&1 == 0 {
			continue
		}
		if n := len(ivs); n > 0 && ivs[n-1].Hi == v-1 {
			ivs[n-1].Hi = v
		} else {
			ivs = append(ivs, interval{Lo: v, Hi: v})
		}
	}
	return &IntervalSet{Width: 6, ivs: ivs}
}

// bitsOf reads a 6-bit set back into its membership mask.
func bitsOf(s *IntervalSet) uint64 {
	var m uint64
	for v := uint64(0); v < 64; v++ {
		if s.Contains(v) {
			m |= 1 << v
		}
	}
	return m
}

// TestIntersectBruteForce checks intersect against a brute-force set over
// 6-bit universes, with the second operand a subset, superset, disjoint
// set, equal set or unrelated set of the first: the result is the canonical
// set of the bitwise and, and whenever it equals the receiver it is the
// receiver — the pointer constrainRoot relies on to skip its write-back.
func TestIntersectBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5000; trial++ {
		a := rng.Uint64()
		if trial%7 == 0 {
			a &= rng.Uint64() & rng.Uint64() // sparse
		}
		if trial%11 == 0 {
			a = ^uint64(0)
		}
		var b uint64
		switch shape := trial % 5; shape {
		case 0: // subset of a
			b = a & rng.Uint64()
		case 1: // superset of a
			b = a | rng.Uint64()
		case 2: // disjoint from a
			b = ^a & rng.Uint64()
		case 3: // equal to a, a distinct pointer
			b = a
		default:
			b = rng.Uint64()
		}
		sa, sb := fromBits(a), fromBits(b)
		got := sa.intersect(sb)
		if want := fromBits(a & b); !setsEqual(got, want) || bitsOf(got) != a&b || got.Width != 6 {
			t.Fatalf("trial %d: %v ∩ %v = %v, want %v", trial, sa, sb, got, want)
		}
		if a&b == a && got != sa {
			t.Fatalf("trial %d: %v ∩ %v equals the receiver but is a new set", trial, sa, sb)
		}
		if bitsOf(sa) != a || bitsOf(sb) != b {
			t.Fatalf("trial %d: Intersect mutated an operand", trial)
		}
	}
}

// setAlgebraMasks returns 6-bit membership masks: the edge shapes (empty,
// full, every single point, alternating bits, low and high halves) followed
// by random masks, some of them sparse.
func setAlgebraMasks(rng *rand.Rand) []uint64 {
	masks := []uint64{0, ^uint64(0), 0x5555555555555555, 0xaaaaaaaaaaaaaaaa,
		0x00000000ffffffff, 0xffffffff00000000, 0x8000000000000001}
	for v := 0; v < 64; v++ {
		masks = append(masks, 1<<v)
	}
	for i := 0; i < 120; i++ {
		m := rng.Uint64()
		if i%3 == 0 {
			m &= rng.Uint64() & rng.Uint64()
		}
		masks = append(masks, m)
	}
	return masks
}

// requireCanonical fails unless s is a 6-bit set in canonical form: sorted
// intervals inside the universe, none overlapping or adjacent.
func requireCanonical(t *testing.T, what string, s *IntervalSet) {
	t.Helper()
	if s.Width != 6 {
		t.Fatalf("%s: width %d, want 6", what, s.Width)
	}
	for i, iv := range s.ivs {
		if iv.Lo > iv.Hi || iv.Hi > 63 {
			t.Fatalf("%s: interval %d [%d,%d] invalid in %v", what, i, iv.Lo, iv.Hi, s)
		}
		if i > 0 && iv.Lo <= s.ivs[i-1].Hi+1 {
			t.Fatalf("%s: interval %d overlaps or touches its predecessor in %v", what, i, s)
		}
	}
}

// TestSetAlgebraBruteForce checks the rest of the set algebra against
// bitwise arithmetic on 6-bit membership masks: every result is the canonical
// set of the expected mask, every query agrees with the mask, and no
// operation touches its operands' intervals.
func TestSetAlgebraBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	masks := setAlgebraMasks(rng)
	check := func(what string, got *IntervalSet, want uint64) {
		t.Helper()
		requireCanonical(t, what, got)
		if bitsOf(got) != want || !setsEqual(got, fromBits(want)) {
			t.Fatalf("%s = %v, want %v", what, got, fromBits(want))
		}
	}
	for _, a := range masks {
		sa := fromBits(a)
		before := slices.Clone(sa.ivs)
		requireCanonical(t, "fromBits", sa)

		check("Complement", sa.complement(), ^a)
		if got := sa.Size(); got != uint64(bits.OnesCount64(a)) {
			t.Fatalf("%v.Size() = %d, want %d", sa, got, bits.OnesCount64(a))
		}
		lo, okLo := sa.Min()
		hi, okHi := sa.Max()
		if okLo != (a != 0) || okHi != (a != 0) {
			t.Fatalf("%v: Min/Max ok = %v/%v on mask %#x", sa, okLo, okHi, a)
		}
		if a != 0 && (lo != uint64(bits.TrailingZeros64(a)) || hi != uint64(63-bits.LeadingZeros64(a))) {
			t.Fatalf("%v: Min/Max = %d/%d", sa, lo, hi)
		}
		for v := uint64(0); v < 64; v++ {
			if sa.Contains(v) != (a>>v&1 == 1) {
				t.Fatalf("%v.Contains(%d) wrong", sa, v)
			}
			check("Remove", sa.remove(v), a&^(1<<v))
		}
		for _, k := range []uint64{1, 5, 31, 63, 64, 65, rng.Uint64()} {
			check("Shift", sa.shift(k), bits.RotateLeft64(a, int(k%64)))
		}

		// A second operand: a subset, superset, disjoint set, equal set,
		// edge shape or unrelated set of the first.
		for _, b := range []uint64{a & rng.Uint64(), a | rng.Uint64(), ^a & rng.Uint64(), a, masks[rng.Intn(len(masks))], rng.Uint64()} {
			sb := fromBits(b)
			beforeB := slices.Clone(sb.ivs)
			check("UnionAll", UnionAll(sa.Width, []*IntervalSet{sa, sb}), a|b)
			check("Subtract", sa.Subtract(sb), a&^b)
			if sa.subsetOf(sb) != (a&^b == 0) {
				t.Fatalf("%v ⊆ %v = %v", sa, sb, sa.subsetOf(sb))
			}
			if setsEqual(sa, sb) != (a == b) {
				t.Fatalf("%v == %v = %v", sa, sb, setsEqual(sa, sb))
			}
			if !slices.Equal(sb.ivs, beforeB) {
				t.Fatalf("an operation mutated its operand %v", sb)
			}
		}

		// UnionAll over one to four sets, the first of them sa.
		sets := []*IntervalSet{sa}
		want := a
		for n := 1 + rng.Intn(4); len(sets) < n; {
			m := masks[rng.Intn(len(masks))]
			sets = append(sets, fromBits(m))
			want |= m
		}
		snap := make([][]interval, len(sets))
		for j, s := range sets {
			snap[j] = slices.Clone(s.ivs)
		}
		check("UnionAll", UnionAll(6, sets), want)
		for j, s := range sets {
			if !slices.Equal(s.ivs, snap[j]) {
				t.Fatalf("UnionAll mutated operand %d", j)
			}
		}
		if !slices.Equal(sa.ivs, before) {
			t.Fatalf("an operation mutated its receiver %v", sa)
		}
	}
}

func TestPrefixMask(t *testing.T) {
	if got := expr.PrefixMask(24, 32); got != 0xffffff00 {
		t.Fatalf("PrefixMask(24,32) = %#x", got)
	}
	if got := expr.PrefixMask(0, 32); got != 0 {
		t.Fatalf("PrefixMask(0,32) = %#x", got)
	}
	if got := expr.PrefixMask(32, 32); got != 0xffffffff {
		t.Fatalf("PrefixMask(32,32) = %#x", got)
	}
	if got := expr.PrefixMask(48, 48); got != 0xffffffffffff {
		t.Fatalf("PrefixMask(48,48) = %#x", got)
	}
}

// setsEqual reports set equality: canonical sets are equal exactly when
// their interval lists are.
func setsEqual(a, b *IntervalSet) bool { return slices.Equal(a.ivs, b.ivs) }

// TestDomainsWithin checks Domains.Within, which walks shifted domains in
// place, against Context.Domain's shifted sets and subsetOf: a symbol's
// own domain, one reached through a union with an offset, an untracked
// symbol (the universe) and a constant, on either side, at 64 values.
func TestDomainsWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	masks := setAlgebraMasks(rng)
	// view returns a context where symbol 1 has the domain of mask m and
	// symbol 2 = symbol 1 + k, and the terms Within is asked about.
	view := func(m, k, add uint64) (*Context, []expr.Lin) {
		c := NewContext(nil)
		s1, s2 := expr.Lin{Sym: 1, Width: 6}, expr.Lin{Sym: 2, Width: 6}
		c.assertTermInSet(s1, fromBits(m))
		c.Add(expr.NewCmp(expr.Eq, s2, s1.AddConst(k)))
		return c, []expr.Lin{s1.AddConst(add), s2.AddConst(add), {Sym: 3, Add: add, Width: 6}, expr.Const(add, 6)}
	}
	for i := 0; i < 400; i++ {
		a, b := masks[rng.Intn(len(masks))], masks[rng.Intn(len(masks))]
		if i%3 == 0 {
			b |= a // a subset, so the answer is not always no
		}
		ca, as := view(a, rng.Uint64(), rng.Uint64())
		cb, bs := view(b, rng.Uint64(), rng.Uint64())
		da, db := ca.Domains(), cb.Domains()
		for _, l := range as {
			for _, ol := range bs {
				want := ca.Domain(l).subsetOf(cb.Domain(ol))
				if got := da.Within(l, &db, ol); got != want {
					t.Fatalf("%s ⊆ %s: Within says %v, Domain %v ⊆ %v says %v", l, ol, got, ca.Domain(l), cb.Domain(ol), want)
				}
			}
		}
	}
	c := NewContext(nil)
	d := c.Domains()
	if d.Within(expr.Lin{Sym: 1, Width: 6}, &d, expr.Lin{Sym: 1, Width: 7}) {
		t.Fatal("a 6-bit term is within a 7-bit one")
	}
}
