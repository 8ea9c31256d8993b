package persist

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMapMatchesReference drives random Set/Delete/Get sequences against a
// built-in map and checks full agreement, including under forking: every few
// operations the map value is copied and both copies evolve independently.
func TestMapMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := Map[uint64, int, mix]{}
		ref := map[uint64]int{}
		type forkPair struct {
			m   Map[uint64, int, mix]
			ref map[uint64]int
		}
		var forks []forkPair
		for op := 0; op < 2000; op++ {
			k := uint64(rng.Intn(300))
			switch rng.Intn(4) {
			case 0, 1:
				v := rng.Int()
				m = m.Set(k, v)
				ref[k] = v
			case 2:
				m = m.Delete(k)
				delete(ref, k)
			case 3:
				if rng.Intn(10) == 0 && len(forks) < 8 {
					refCopy := make(map[uint64]int, len(ref))
					for k, v := range ref {
						refCopy[k] = v
					}
					forks = append(forks, forkPair{m: m, ref: refCopy})
				}
			}
			if m.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len=%d want %d", seed, op, m.Len(), len(ref))
			}
		}
		check := func(m Map[uint64, int, mix], ref map[uint64]int) {
			t.Helper()
			for k := uint64(0); k < 300; k++ {
				got, ok := m.Get(k)
				want, wantOK := ref[k]
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("seed %d: Get(%d) = %d,%v want %d,%v", seed, k, got, ok, want, wantOK)
				}
			}
			n := 0
			m.Range(func(k uint64, v int) bool {
				if ref[k] != v {
					t.Fatalf("seed %d: Range yielded %d=%d, want %d", seed, k, v, ref[k])
				}
				n++
				return true
			})
			if n != len(ref) {
				t.Fatalf("seed %d: Range yielded %d pairs, want %d", seed, n, len(ref))
			}
		}
		check(m, ref)
		// Forked snapshots must be unaffected by later mutations.
		for _, f := range forks {
			check(f.m, f.ref)
		}
	}
}

// TestMapSmallBoundary drives random operation sequences whose sizes hover
// around the inline-representation bound, so every Set/Delete/Get/Range path
// of the small form — and the small→trie promotion — is crossed repeatedly,
// with forks pinned on both sides of the boundary.
func TestMapSmallBoundary(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		m := Map[uint64, int, mix]{}
		ref := map[uint64]int{}
		type forkPair struct {
			m   Map[uint64, int, mix]
			ref map[uint64]int
		}
		var forks []forkPair
		// Keys drawn from a tiny space keep Len oscillating across smallMax.
		keySpace := uint64(smallMax + 4)
		for op := 0; op < 400; op++ {
			k := uint64(rng.Intn(int(keySpace)))
			switch rng.Intn(5) {
			case 0, 1, 2:
				v := rng.Int()
				m = m.Set(k, v)
				ref[k] = v
			case 3:
				m = m.Delete(k)
				delete(ref, k)
			case 4:
				refCopy := make(map[uint64]int, len(ref))
				for k, v := range ref {
					refCopy[k] = v
				}
				forks = append(forks, forkPair{m: m, ref: refCopy})
			}
			if m.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len=%d want %d", seed, op, m.Len(), len(ref))
			}
			for k := uint64(0); k < keySpace; k++ {
				got, ok := m.Get(k)
				want, wantOK := ref[k]
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("seed %d op %d: Get(%d)=%d,%v want %d,%v", seed, op, k, got, ok, want, wantOK)
				}
			}
		}
		// Forked snapshots — some inline, some promoted — must have been
		// unaffected by every later mutation.
		for _, f := range forks {
			n := 0
			f.m.Range(func(k uint64, v int) bool {
				if f.ref[k] != v {
					t.Fatalf("seed %d: fork Range yielded %d=%d, want %d", seed, k, v, f.ref[k])
				}
				n++
				return true
			})
			if n != len(f.ref) {
				t.Fatalf("seed %d: fork Range yielded %d pairs, want %d", seed, n, len(f.ref))
			}
		}
	}
}

// TestMapSmallIterationDeterministic: below the inline bound, the same key
// set inserted in different orders must still Range identically (entries are
// kept in hash order, not insertion order).
func TestMapSmallIterationDeterministic(t *testing.T) {
	keys := []uint64{9, 3, 250, 17, 42, 1, 77}
	a := Map[uint64, int, mix]{}
	for _, k := range keys {
		a = a.Set(k, int(k))
	}
	b := Map[uint64, int, mix]{}
	for i := len(keys) - 1; i >= 0; i-- {
		b = b.Set(keys[i], int(keys[i]))
	}
	var orderA, orderB []uint64
	a.Range(func(k uint64, _ int) bool { orderA = append(orderA, k); return true })
	b.Range(func(k uint64, _ int) bool { orderB = append(orderB, k); return true })
	if len(orderA) != len(keys) || len(orderB) != len(keys) {
		t.Fatalf("lengths: %d, %d, want %d", len(orderA), len(orderB), len(keys))
	}
	for i := range orderA {
		if orderA[i] != orderB[i] {
			t.Fatalf("iteration order differs at %d: %d vs %d", i, orderA[i], orderB[i])
		}
		if i > 0 && Mix64(orderA[i-1]) >= Mix64(orderA[i]) {
			t.Fatalf("inline entries not hash-sorted at %d", i)
		}
	}
}

// TestMapPromotionKeepsSnapshots pins a snapshot at exactly smallMax
// entries, grows the map through the promotion, and checks both forms.
func TestMapPromotionKeepsSnapshots(t *testing.T) {
	m := Map[uint64, int, mix]{}
	for i := uint64(0); i < smallMax; i++ {
		m = m.Set(i, int(i))
	}
	snap := m
	for i := uint64(smallMax); i < 4*smallMax; i++ {
		m = m.Set(i, int(i))
	}
	if snap.Len() != smallMax {
		t.Fatalf("snapshot Len=%d want %d", snap.Len(), smallMax)
	}
	if m.Len() != 4*smallMax {
		t.Fatalf("promoted Len=%d want %d", m.Len(), 4*smallMax)
	}
	for i := uint64(0); i < 4*smallMax; i++ {
		if v, ok := m.Get(i); !ok || v != int(i) {
			t.Fatalf("promoted Get(%d)=%d,%v", i, v, ok)
		}
		_, ok := snap.Get(i)
		if want := i < smallMax; ok != want {
			t.Fatalf("snapshot Get(%d)=%v want %v", i, ok, want)
		}
	}
}

// mix hashes a key with Mix64.
type mix struct{}

func (mix) Hash(k uint64) uint64 { return Mix64(k) }

// collide forces every key into one 64-bit hash bucket, exercising the
// collision-bucket path end to end.
type collide struct{}

func (collide) Hash(uint64) uint64 { return 42 }

func TestMapCollisionBuckets(t *testing.T) {
	m := Map[uint64, string, collide]{}
	for i := uint64(0); i < 20; i++ {
		m = m.Set(i, "v")
	}
	if m.Len() != 20 {
		t.Fatalf("Len=%d want 20", m.Len())
	}
	snap := m
	for i := uint64(0); i < 20; i += 2 {
		m = m.Delete(i)
	}
	if m.Len() != 10 {
		t.Fatalf("after deletes Len=%d want 10", m.Len())
	}
	for i := uint64(0); i < 20; i++ {
		_, ok := m.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d)=%v want %v", i, ok, want)
		}
		if _, ok := snap.Get(i); !ok {
			t.Fatalf("snapshot lost key %d", i)
		}
	}
}

// TestMapIterationDeterministic: same key set, different insertion orders,
// identical Range order (trie shape is a pure function of the key set).
func TestMapIterationDeterministic(t *testing.T) {
	keys := rand.New(rand.NewSource(7)).Perm(500)
	a := Map[uint64, int, mix]{}
	for _, k := range keys {
		a = a.Set(uint64(k), k)
	}
	b := Map[uint64, int, mix]{}
	for i := len(keys) - 1; i >= 0; i-- {
		b = b.Set(uint64(keys[i]), keys[i])
	}
	var orderA, orderB []uint64
	a.Range(func(k uint64, _ int) bool { orderA = append(orderA, k); return true })
	b.Range(func(k uint64, _ int) bool { orderB = append(orderB, k); return true })
	if len(orderA) != len(orderB) {
		t.Fatalf("lengths differ: %d vs %d", len(orderA), len(orderB))
	}
	for i := range orderA {
		if orderA[i] != orderB[i] {
			t.Fatalf("iteration order differs at %d: %d vs %d", i, orderA[i], orderB[i])
		}
	}
}

// TestMapSetOwnedKeepsSnapshots is the edit-token property: a writer applies
// random SetOwned/Delete sequences under one token, and now and then takes a
// snapshot (a copy of the map header) and drops its token, as memory.Mem
// does at a fork; later it may also resume writing from an old snapshot
// under a fresh token, as the other side of a fork does. No snapshot may
// ever change, in the inline form, the trie, across promotion, or in
// collision buckets.
func TestMapSetOwnedKeepsSnapshots(t *testing.T) {
	setOwnedKeepsSnapshots[mix](t, "mix")
	setOwnedKeepsSnapshots[mod3](t, "colliding")
}

// mod3 hashes every key to one of three values.
type mod3 struct{}

func (mod3) Hash(k uint64) uint64 { return Mix64(k % 3) }

// setOwnedKeepsSnapshots is TestMapSetOwnedKeepsSnapshots for maps hashed
// by H.
func setOwnedKeepsSnapshots[H hasher[uint64]](t *testing.T, name string) {
	t.Helper()
	for _, keySpace := range []int{smallMax - 2, smallMax + 4, 300} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			type snapshot struct {
				m   Map[uint64, int, H]
				ref map[uint64]int
			}
			copyRef := func(ref map[uint64]int) map[uint64]int {
				out := make(map[uint64]int, len(ref))
				for k, v := range ref {
					out[k] = v
				}
				return out
			}
			check := func(when string, m Map[uint64, int, H], ref map[uint64]int) {
				t.Helper()
				if m.Len() != len(ref) {
					t.Fatalf("%s keys=%d seed %d %s: Len=%d want %d", name, keySpace, seed, when, m.Len(), len(ref))
				}
				for k := uint64(0); k < uint64(keySpace); k++ {
					got, ok := m.Get(k)
					want, wantOK := ref[k]
					if ok != wantOK || (ok && got != want) {
						t.Fatalf("%s keys=%d seed %d %s: Get(%d)=%d,%v want %d,%v", name, keySpace, seed, when, k, got, ok, want, wantOK)
					}
				}
			}
			m, ref := Map[uint64, int, H]{}, map[uint64]int{}
			var owner uint64
			var snaps []snapshot
			for op := 0; op < 600; op++ {
				k := uint64(rng.Intn(keySpace))
				switch r := rng.Intn(20); {
				case r < 14:
					if owner == 0 {
						owner = NewOwner()
					}
					v := rng.Int()
					m = m.SetOwned(k, v, owner)
					ref[k] = v
				case r < 16:
					m = m.Delete(k)
					delete(ref, k)
				case r < 19:
					snaps = append(snaps, snapshot{m: m, ref: copyRef(ref)})
					owner = 0
				default:
					if len(snaps) > 0 {
						s := snaps[rng.Intn(len(snaps))]
						m, ref, owner = s.m, copyRef(s.ref), 0
					}
				}
				check("live", m, ref)
			}
			for i, s := range snaps {
				check(fmt.Sprintf("snapshot %d", i), s.m, s.ref)
			}
		}
	}
}

// TestMapSetOwnedEditsInPlace pins what the token buys: once a writer has
// copied a path under its token, overwriting a key on it allocates nothing,
// inline and in the trie — and a plain Set still copies.
func TestMapSetOwnedEditsInPlace(t *testing.T) {
	for _, n := range []uint64{smallMax, 100} {
		m := Map[uint64, int, mix]{}
		for i := uint64(0); i < n; i++ {
			m = m.Set(i, int(i))
		}
		owner := NewOwner()
		m = m.SetOwned(3, -1, owner)
		if allocs := testing.AllocsPerRun(10, func() { m = m.SetOwned(3, 7, owner) }); allocs != 0 {
			t.Errorf("%d keys: an owned overwrite allocated %.0f times, want 0", n, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { m = m.Set(3, 7) }); allocs == 0 {
			t.Errorf("%d keys: Set wrote in place", n)
		}
		if v, _ := m.Get(3); v != 7 || m.Len() != int(n) {
			t.Errorf("%d keys: Get(3)=%d Len=%d", n, v, m.Len())
		}
	}
}
