package hsa

import (
	"testing"
	"testing/quick"

	"symnet/internal/sefl"
	"symnet/internal/tables"
)

func TestCubeIntersect(t *testing.T) {
	a := fromPrefix(0x0a000000, 8, 32)  // 10/8
	b := fromPrefix(0x0a0a0000, 16, 32) // 10.10/16
	i, ok := a.intersect(b)
	if !ok || !a.contains(b) || i != b {
		t.Fatalf("nested prefixes: %v ∩ %v = %v ok=%v", a, b, i, ok)
	}
	c := fromPrefix(0x0b000000, 8, 32) // 11/8
	if _, ok := a.intersect(c); ok {
		t.Fatal("disjoint prefixes must not intersect")
	}
	if _, ok := FullCube.intersect(a); !ok {
		t.Fatal("full cube intersects everything")
	}
}

func TestRegionEmptiness(t *testing.T) {
	// 10/8 minus 10/8 is empty.
	r := NewRegion(fromPrefix(0x0a000000, 8, 32)).subtract(fromPrefix(0x0a000000, 8, 32))
	if !r.empty(32) {
		t.Fatal("x - x must be empty")
	}
	// 10/8 minus 10.10/16 is not empty.
	r2 := NewRegion(fromPrefix(0x0a000000, 8, 32)).subtract(fromPrefix(0x0a0a0000, 16, 32))
	if r2.empty(32) {
		t.Fatal("/8 minus /16 must be non-empty")
	}
	// Splitting a /8 into its two /9 halves empties it.
	r3 := NewRegion(fromPrefix(0x0a000000, 8, 32)).
		subtract(fromPrefix(0x0a000000, 9, 32)).
		subtract(fromPrefix(0x0a800000, 9, 32))
	if !r3.empty(32) {
		t.Fatal("/8 minus both /9 halves must be empty")
	}
}

func TestRegionEmptinessQuick(t *testing.T) {
	// Property over a tiny 6-bit universe: brute-force emptiness agrees
	// with the recursive check.
	f := func(baseMask, baseVal, m1, v1, m2, v2 uint8) bool {
		const w = 6
		mk := func(m, v uint8) Cube {
			return Cube{Mask: uint64(m) & 0x3f, Val: uint64(v) & 0x3f}
		}
		base, c1, c2 := mk(baseMask, baseVal), mk(m1, v1), mk(m2, v2)
		r := NewRegion(base).subtract(c1, c2)
		got := r.empty(w)
		want := true
		for x := uint64(0); x < 64; x++ {
			inBase := x&base.Mask == base.Val&base.Mask
			in1 := x&c1.Mask == c1.Val&c1.Mask
			in2 := x&c2.Mask == c2.Val&c2.Mask
			if inBase && !in1 && !in2 {
				want = false
				break
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFromFIBReachability(t *testing.T) {
	// Two-router chain with the paper's overlapping FIB.
	fib := tables.FIB{
		{Prefix: sefl.IPToNumber("10.0.0.0"), Len: 8, Port: 0},
		{Prefix: sefl.IPToNumber("10.10.0.1"), Len: 32, Port: 1},
	}
	net := NewNetwork()
	net.Add(FromFIB("r", fib))
	reached := net.Reach(PortRef{Box: "r", Port: 0}, Space{NewRegion(FullCube)}, 32, 8)
	// Output ports 0 and 1 must both be reached; port 0's space must
	// exclude the /32.
	var port0 Space
	seen := map[int]bool{}
	for _, r := range reached {
		if r.At.Out {
			seen[r.At.Port] = true
			if r.At.Port == 0 {
				port0 = r.Space
			}
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("reached out-ports: %v", seen)
	}
	host := sefl.IPToNumber("10.10.0.1")
	hostCube := Cube{Mask: 0xffffffff, Val: host}
	for _, reg := range port0 {
		inter, ok := reg.intersect(hostCube)
		if ok && !inter.empty(32) {
			t.Fatal("port 0 space must exclude the more-specific host route")
		}
	}
}

func TestReachLoopBounded(t *testing.T) {
	// Two boxes defaulting to each other: Reach must terminate via maxHops.
	fib := tables.FIB{{Prefix: 0, Len: 0, Port: 0}}
	net := NewNetwork()
	net.Add(FromFIB("a", fib))
	net.Add(FromFIB("b", fib))
	net.Link("a", 0, "b", 0)
	net.Link("b", 0, "a", 0)
	reached := net.Reach(PortRef{Box: "a", Port: 0}, Space{NewRegion(FullCube)}, 32, 10)
	if len(reached) == 0 {
		t.Fatal("no propagation")
	}
	for _, r := range reached {
		if r.Hops > 10 {
			t.Fatal("hop bound violated")
		}
	}
}

func TestHSACannotExpressInvariance(t *testing.T) {
	// The §2 argument, demonstrated: propagate a full wildcard through an
	// identity box; the output is again a full wildcard — indistinguishable
	// from any transformation that permutes the header space.
	net := NewNetwork()
	net.Add(&Box{Name: "id", Transfer: map[int][]PortFilter{
		wildcard: {{OutPort: 0, Allow: []Region{NewRegion(FullCube)}}},
	}})
	reached := net.Reach(PortRef{Box: "id", Port: 0}, Space{NewRegion(FullCube)}, 32, 4)
	for _, r := range reached {
		if r.At.Out {
			if len(r.Space) != 1 || r.Space[0].Base != FullCube {
				t.Fatal("expected the wildcard to stay a wildcard")
			}
		}
	}
	// (SymNet, by contrast, proves per-packet invariance — see
	// internal/models.TestTunnelPayloadInvariance.)
}
