package expr

import "testing"

func TestHashCondStableAndDiscriminating(t *testing.T) {
	x := Lin{Sym: 1, Width: 32}
	y := Lin{Sym: 2, Width: 32}
	a := NewCmp(Eq, x, Const(5, 32))
	b := NewCmp(Eq, x, Const(5, 32))
	if HashCond(a) != HashCond(b) {
		t.Fatal("structurally equal conditions must hash equal")
	}
	distinct := []Cond{
		a,
		NewCmp(Eq, x, Const(6, 32)),
		NewCmp(Ne, x, Const(5, 32)),
		NewCmp(Eq, y, Const(5, 32)),
		NewPrefix(x, 0x12000000, 8),
		NewNot(NewPrefix(x, 0x12000000, 8)),
		And{Cs: []Cond{a, NewCmp(Lt, y, Const(9, 32))}},
		Or{Cs: []Cond{a, NewCmp(Lt, y, Const(9, 32))}},
		Bool(true),
		Bool(false),
	}
	seen := map[Fp]int{}
	for i, c := range distinct {
		fp := HashCond(c)
		if j, dup := seen[fp]; dup {
			t.Fatalf("conditions %d and %d collide: %s vs %s", j, i, distinct[j], c)
		}
		seen[fp] = i
	}
}

func TestChainOrderDependent(t *testing.T) {
	a, b := Fp{Hi: 1, Lo: 2}, Fp{Hi: 3, Lo: 4}
	var z Fp
	if z.Chain(a).Chain(b) == z.Chain(b).Chain(a) {
		t.Fatal("Chain must be order-dependent")
	}
	if z.Chain(a) == z.Chain(b) {
		t.Fatal("Chain must discriminate inputs")
	}
}
