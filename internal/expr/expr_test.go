package expr

import (
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := map[int]uint64{1: 1, 8: 0xff, 16: 0xffff, 32: 0xffffffff, 48: 0xffffffffffff, 64: ^uint64(0)}
	for w, want := range cases {
		if got := Mask(w); got != want {
			t.Errorf("Mask(%d) = %#x, want %#x", w, got, want)
		}
	}
}

func TestLinModularArithmetic(t *testing.T) {
	var a Alloc
	s := a.Fresh(8)
	if got := s.AddConst(300).Add; got != 300&0xff {
		t.Fatalf("AddConst wrap: %d", got)
	}
	if got := s.SubConst(1).Add; got != 0xff {
		t.Fatalf("SubConst wrap: %d", got)
	}
	// Add/Sub must be inverses mod 2^w.
	f := func(k uint64) bool {
		return s.AddConst(k).SubConst(k) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstFolding(t *testing.T) {
	if c := NewCmp(Eq, Const(3, 8), Const(3, 8)); c != Bool(true) {
		t.Fatalf("3==3 folded to %v", c)
	}
	if c := NewCmp(Lt, Const(5, 8), Const(3, 8)); c != Bool(false) {
		t.Fatalf("5<3 folded to %v", c)
	}
	if c := NewPrefix(Const(0x0a000001, 32), 0x0a000000, 8); c != Bool(true) {
		t.Fatalf("prefix fold: %v", c)
	}
}

func TestNewAndOrFolding(t *testing.T) {
	var a Alloc
	x := a.Fresh(8)
	atom := NewCmp(Eq, x, Const(1, 8))
	if c := NewAnd(Bool(true), atom); c != atom {
		t.Fatalf("And(true, a) = %v", c)
	}
	if c := NewAnd(Bool(false), atom); c != Bool(false) {
		t.Fatalf("And(false, a) = %v", c)
	}
	if c := NewOr(Bool(true), atom); c != Bool(true) {
		t.Fatalf("Or(true, a) = %v", c)
	}
	if c := NewOr(Bool(false), atom); c != atom {
		t.Fatalf("Or(false, a) = %v", c)
	}
	// Nested flattening.
	nested := NewOr(NewOr(atom, atom), atom)
	if or, ok := nested.(Or); !ok || len(or.Cs) != 3 {
		t.Fatalf("flattening: %v", nested)
	}
}

func TestNegateRoundTrip(t *testing.T) {
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		if op.Negate().Negate() != op {
			t.Errorf("double negation of %v", op)
		}
		// op(a,b) XOR negate(op)(a,b) for arbitrary values.
		f := func(a, b uint8) bool {
			return EvalCmp(op, uint64(a), uint64(b)) != EvalCmp(op.Negate(), uint64(a), uint64(b))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", op, err)
		}
	}
}

func TestFlipConsistency(t *testing.T) {
	// a op b == b flip(op) a
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		f := func(a, b uint8) bool {
			return EvalCmp(op, uint64(a), uint64(b)) == EvalCmp(op.Flip(), uint64(b), uint64(a))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", op, err)
		}
	}
}

func TestNewNotPushesThroughCmp(t *testing.T) {
	var a Alloc
	x := a.Fresh(8)
	n := NewNot(NewCmp(Lt, x, Const(4, 8)))
	cmp, ok := n.(Cmp)
	if !ok || cmp.Op != Ge {
		t.Fatalf("NewNot(x<4) = %v", n)
	}
	if NewNot(Bool(true)) != Bool(false) {
		t.Fatal("NewNot(true)")
	}
}
