// Package persist provides the immutable, structure-sharing containers the
// engine's copy-on-write state representation is built on. The central type
// is Map, a hash-array-mapped trie (HAMT): cloning a Map is a constant-size
// header copy, and an insert or delete copies only the O(log n) spine of
// nodes from the root to the touched slot, sharing everything else with the
// original. This is what makes forking a symbolic-execution path O(1) in the
// size of accumulated state.
//
// A Map header is 40 bytes on a 64-bit machine: the trie root, the inline
// slice and an edit token. It keeps no count of its keys, because every fork
// copies the headers of the stores it carries: Len reads the inline slice's
// length or walks the trie, and only capacity hints call it.
//
// A map's hash is a type, whose Hash method the map calls, so a Map header
// carries no function. Hashes must be deterministic across processes (no
// per-process seeding): trie shape — and with it iteration order — is a
// pure function of the key set, which the engine's determinism contract
// (byte-identical results at any worker count) relies on.
package persist

import (
	"math/bits"
	"sync/atomic"
)

const (
	bitsPerLevel = 5
	levelMask    = 1<<bitsPerLevel - 1
	// maxShift is the deepest level that still consumes fresh hash bits;
	// keys colliding through all 64 bits fall into a collision bucket.
	maxShift = 60
	// smallMax is the inline-representation bound: maps of at most this many
	// entries are stored as a flat hash-sorted slice scanned linearly, which
	// beats the trie on both lookup (no node walk) and update (one small
	// slice copy beats a spine copy) for the tiny maps that dominate short
	// queries — a fresh packet's handful of header fields, two or three
	// tags, a near-empty union-find. A map that grows past the bound is
	// promoted to a trie and stays one (shrinking back would only add
	// branches to the hot paths).
	smallMax = 8
)

// kv is one key/value pair.
type kv[K comparable, V any] struct {
	key K
	val V
}

// entry is one occupied slot of a node: either a leaf (child == nil) or a
// pointer to a subtree.
type entry[K comparable, V any] struct {
	child *node[K, V]
	hash  uint64
	kv    kv[K, V]
}

// node is one trie node: a bitmap of occupied slots and the dense slice of
// entries for the set bits, ordered by slot index. A node with coll != nil
// is a collision bucket holding keys whose full 64-bit hashes are equal.
// edit is the token of the writer that built the node (0: none); SetOwned
// updates it in place for that writer only.
type node[K comparable, V any] struct {
	bitmap  uint32
	edit    uint64
	entries []entry[K, V]
	coll    []kv[K, V]
}

// hasher hashes a Map's keys, called on its zero value (a struct{} type).
type hasher[K any] interface{ Hash(K) uint64 }

// Map is an immutable hash map whose keys H hashes. The zero value is an
// empty map. Map values are freely copyable headers: Set and Delete return new
// Maps sharing structure with the receiver, which remains valid and
// unchanged. SetOwned is the one exception, for a single writer that holds
// an edit token (see NewOwner).
//
// Maps holding at most smallMax entries use an inline hash-sorted slice
// (linear scan, no trie walk); larger maps are HAMTs. Iteration order is
// deterministic either way: hash order for the inline form, trie order for
// the HAMT — both pure functions of the key set for a map that has stayed in
// one representation (keys whose full 64-bit hashes collide tie-break by
// insertion order in the inline form, as in a trie collision bucket).
type Map[K comparable, V any, H hasher[K]] struct {
	root  *node[K, V]
	small []entry[K, V] // inline form: hash-sorted, child fields unused
	edit  uint64        // token of the writer that built small (0: none)
}

func (m Map[K, V, H]) hash(k K) uint64 { return (*new(H)).Hash(k) }

// owners mints edit tokens; 0 is never handed out, so it owns nothing.
var owners atomic.Uint64

// NewOwner mints a fresh edit token for SetOwned. Minting allocates
// nothing, and no two calls in a process return the same token.
func NewOwner() uint64 { return owners.Add(1) }

// Len reports the number of keys: the inline slice's length, or a walk of
// the trie. A header keeps no count, so a fork copies one word less; only
// capacity hints ask.
func (m Map[K, V, H]) Len() int {
	if m.root == nil {
		return len(m.small)
	}
	n := 0
	rangeNode(m.root, func(K, V) bool { n++; return true })
	return n
}

// Get returns the value for k.
func (m Map[K, V, H]) Get(k K) (V, bool) {
	var zero V
	n := m.root
	if n == nil {
		h := m.hash(k)
		for i := range m.small {
			if m.small[i].hash == h && m.small[i].kv.key == k {
				return m.small[i].kv.val, true
			}
		}
		return zero, false
	}
	h := m.hash(k)
	shift := uint(0)
	for {
		if n.coll != nil {
			for i := range n.coll {
				if n.coll[i].key == k {
					return n.coll[i].val, true
				}
			}
			return zero, false
		}
		bit := uint32(1) << (uint32(h>>shift) & levelMask)
		if n.bitmap&bit == 0 {
			return zero, false
		}
		e := &n.entries[bits.OnesCount32(n.bitmap&(bit-1))]
		if e.child != nil {
			n = e.child
			shift += bitsPerLevel
			continue
		}
		if e.hash == h && e.kv.key == k {
			return e.kv.val, true
		}
		return zero, false
	}
}

// Set returns a map with k bound to v; the receiver is unchanged.
func (m Map[K, V, H]) Set(k K, v V) Map[K, V, H] { return m.set(k, v, 0) }

// SetOwned is Set for a writer holding the edit token owner (from NewOwner):
// structure stamped with owner — built by an earlier SetOwned with the same
// token — is updated in place, and everything else is copied and stamped.
// So consecutive writes by one owner path-copy once, not once per write.
// The receiver, and every copy of it, may change: the caller must be the
// only writer holding the token, and must drop the token (write with a fresh
// one) before another copy of the map may be read or written independently,
// as a snapshot or a fork. Structure stamped with a token nobody holds is
// immutable again.
func (m Map[K, V, H]) SetOwned(k K, v V, owner uint64) Map[K, V, H] { return m.set(k, v, owner) }

// set is Set (owner 0) and SetOwned.
func (m Map[K, V, H]) set(k K, v V, owner uint64) Map[K, V, H] {
	h := m.hash(k)
	if m.root == nil {
		return m.setSmall(h, kv[K, V]{key: k, val: v}, owner)
	}
	return Map[K, V, H]{root: setNode(m.root, 0, h, kv[K, V]{key: k, val: v}, owner)}
}

// owns reports whether structure stamped edit may be updated in place by the
// writer holding owner.
func owns(edit, owner uint64) bool { return owner != 0 && edit == owner }

// setSmall is set on the inline form: replace (in place when owned, else
// in a copy), insert in hash order, or promote to a trie when the bound is
// exceeded.
func (m Map[K, V, H]) setSmall(h uint64, p kv[K, V], owner uint64) Map[K, V, H] {
	for i := range m.small {
		if m.small[i].hash == h && m.small[i].kv.key == p.key {
			if owns(m.edit, owner) {
				m.small[i].kv = p
				return m
			}
			out := make([]entry[K, V], len(m.small))
			copy(out, m.small)
			out[i].kv = p
			return Map[K, V, H]{small: out, edit: owner}
		}
	}
	if len(m.small) < smallMax {
		// Insert after any entries with the same or smaller hash, so the
		// slice stays hash-sorted and equal hashes keep insertion order.
		pos := len(m.small)
		for i := range m.small {
			if m.small[i].hash > h {
				pos = i
				break
			}
		}
		out := make([]entry[K, V], len(m.small)+1)
		copy(out, m.small[:pos])
		out[pos] = entry[K, V]{hash: h, kv: p}
		copy(out[pos+1:], m.small[pos:])
		return Map[K, V, H]{small: out, edit: owner}
	}
	// Promote: build the canonical trie from the inline entries plus the
	// new pair in one pass (grouping by hash chunk), so crossing the
	// boundary costs about as much as one more inline copy — important
	// because under forking many path-local copies of a map can each cross
	// the boundary themselves. Trie shape is a pure function of the key
	// hashes, so the build order is irrelevant (except inside collision
	// buckets, which preserve the inline form's order).
	all := make([]entry[K, V], len(m.small)+1)
	copy(all, m.small)
	all[len(m.small)] = entry[K, V]{hash: h, kv: p}
	return Map[K, V, H]{root: buildNode(all, 0, owner)}
}

// buildNode builds the canonical trie node for a set of entries in one
// pass, stamped edit. Entries are regrouped by the hash chunk at shift;
// groups of one become leaves, larger groups recurse. The result is
// identical to inserting the entries one by one.
func buildNode[K comparable, V any](entries []entry[K, V], shift uint, edit uint64) *node[K, V] {
	if shift > maxShift {
		coll := make([]kv[K, V], len(entries))
		for i := range entries {
			coll[i] = entries[i].kv
		}
		return &node[K, V]{coll: coll, edit: edit}
	}
	// Stable insertion sort by slot index: n is tiny (promotion passes
	// smallMax+1 entries) and equal full hashes must keep their order.
	idx := func(e *entry[K, V]) uint32 { return uint32(e.hash>>shift) & levelMask }
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && idx(&entries[j-1]) > idx(&entries[j]); j-- {
			entries[j-1], entries[j] = entries[j], entries[j-1]
		}
	}
	var bitmap uint32
	out := make([]entry[K, V], 0, len(entries))
	for i := 0; i < len(entries); {
		j := i + 1
		for j < len(entries) && idx(&entries[j]) == idx(&entries[i]) {
			j++
		}
		bitmap |= 1 << idx(&entries[i])
		if j == i+1 {
			out = append(out, entries[i])
		} else {
			group := make([]entry[K, V], j-i)
			copy(group, entries[i:j])
			out = append(out, entry[K, V]{child: buildNode(group, shift+bitsPerLevel, edit)})
		}
		i = j
	}
	return &node[K, V]{bitmap: bitmap, entries: out, edit: edit}
}

// setNode binds p below n, returning the node to store in n's place: n
// itself, updated in place, when owner owns it; otherwise a copy stamped
// owner.
func setNode[K comparable, V any](n *node[K, V], shift uint, h uint64, p kv[K, V], owner uint64) *node[K, V] {
	if n == nil {
		bit := uint32(1) << (uint32(h>>shift) & levelMask)
		return &node[K, V]{bitmap: bit, entries: []entry[K, V]{{hash: h, kv: p}}, edit: owner}
	}
	if n.coll != nil {
		for i := range n.coll {
			if n.coll[i].key == p.key {
				if owns(n.edit, owner) {
					n.coll[i].val = p.val
					return n
				}
				out := make([]kv[K, V], len(n.coll))
				copy(out, n.coll)
				out[i].val = p.val
				return &node[K, V]{coll: out, edit: owner}
			}
		}
		out := make([]kv[K, V], len(n.coll), len(n.coll)+1)
		copy(out, n.coll)
		return &node[K, V]{coll: append(out, p), edit: owner}
	}
	bit := uint32(1) << (uint32(h>>shift) & levelMask)
	pos := bits.OnesCount32(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		out := make([]entry[K, V], len(n.entries)+1)
		copy(out, n.entries[:pos])
		out[pos] = entry[K, V]{hash: h, kv: p}
		copy(out[pos+1:], n.entries[pos:])
		if owns(n.edit, owner) {
			n.bitmap |= bit
			n.entries = out
			return n
		}
		return &node[K, V]{bitmap: n.bitmap | bit, entries: out, edit: owner}
	}
	nn := n
	if !owns(n.edit, owner) {
		out := make([]entry[K, V], len(n.entries))
		copy(out, n.entries)
		nn = &node[K, V]{bitmap: n.bitmap, entries: out, edit: owner}
	}
	e := &nn.entries[pos]
	switch {
	case e.child != nil:
		e.child = setNode(e.child, shift+bitsPerLevel, h, p, owner)
	case e.hash == h && e.kv.key == p.key:
		e.kv.val = p.val
	default:
		e.child = mergeLeaves(shift+bitsPerLevel, *e, entry[K, V]{hash: h, kv: p}, owner)
		e.kv = kv[K, V]{}
		e.hash = 0
	}
	return nn
}

// mergeLeaves builds the minimal subtree holding two distinct leaves,
// stamped edit.
func mergeLeaves[K comparable, V any](shift uint, a, b entry[K, V], edit uint64) *node[K, V] {
	if shift > maxShift {
		return &node[K, V]{coll: []kv[K, V]{a.kv, b.kv}, edit: edit}
	}
	ia := uint32(a.hash>>shift) & levelMask
	ib := uint32(b.hash>>shift) & levelMask
	if ia == ib {
		return &node[K, V]{
			bitmap:  1 << ia,
			entries: []entry[K, V]{{child: mergeLeaves(shift+bitsPerLevel, a, b, edit)}},
			edit:    edit,
		}
	}
	if ia > ib {
		a, b = b, a
		ia, ib = ib, ia
	}
	return &node[K, V]{bitmap: 1<<ia | 1<<ib, entries: []entry[K, V]{a, b}, edit: edit}
}

// Delete returns a map without k; the receiver is unchanged.
func (m Map[K, V, H]) Delete(k K) Map[K, V, H] {
	if m.root == nil {
		h := m.hash(k)
		for i := range m.small {
			if m.small[i].hash == h && m.small[i].kv.key == k {
				out := make([]entry[K, V], 0, len(m.small)-1)
				out = append(out, m.small[:i]...)
				out = append(out, m.small[i+1:]...)
				if len(out) == 0 {
					out = nil
				}
				return Map[K, V, H]{small: out}
			}
		}
		return m
	}
	removed := false
	root := delNode(m.root, 0, m.hash(k), k, &removed)
	if !removed {
		return m
	}
	return Map[K, V, H]{root: root}
}

func delNode[K comparable, V any](n *node[K, V], shift uint, h uint64, k K, removed *bool) *node[K, V] {
	if n.coll != nil {
		for i := range n.coll {
			if n.coll[i].key == k {
				*removed = true
				if len(n.coll) == 1 {
					return nil
				}
				out := make([]kv[K, V], 0, len(n.coll)-1)
				out = append(out, n.coll[:i]...)
				out = append(out, n.coll[i+1:]...)
				return &node[K, V]{coll: out}
			}
		}
		return n
	}
	bit := uint32(1) << (uint32(h>>shift) & levelMask)
	if n.bitmap&bit == 0 {
		return n
	}
	pos := bits.OnesCount32(n.bitmap & (bit - 1))
	e := &n.entries[pos]
	if e.child != nil {
		nc := delNode(e.child, shift+bitsPerLevel, h, k, removed)
		if !*removed {
			return n
		}
		if nc == nil {
			return removeSlot(n, bit, pos)
		}
		out := make([]entry[K, V], len(n.entries))
		copy(out, n.entries)
		if nc.coll == nil && len(nc.entries) == 1 && nc.entries[0].child == nil {
			// Collapse a single-leaf subtree back into this level.
			out[pos] = nc.entries[0]
		} else {
			out[pos].child = nc
		}
		return &node[K, V]{bitmap: n.bitmap, entries: out}
	}
	if e.hash != h || e.kv.key != k {
		return n
	}
	*removed = true
	if len(n.entries) == 1 {
		return nil
	}
	return removeSlot(n, bit, pos)
}

func removeSlot[K comparable, V any](n *node[K, V], bit uint32, pos int) *node[K, V] {
	out := make([]entry[K, V], 0, len(n.entries)-1)
	out = append(out, n.entries[:pos]...)
	out = append(out, n.entries[pos+1:]...)
	return &node[K, V]{bitmap: n.bitmap &^ bit, entries: out}
}

// Range calls f for every key/value pair until f returns false. Iteration
// order is hash order (inline form) or trie order (HAMT) — deterministic for
// a given key set and hash function, but not sorted; callers needing a
// specific order must sort.
func (m Map[K, V, H]) Range(f func(K, V) bool) {
	if m.root != nil {
		rangeNode(m.root, f)
		return
	}
	for i := range m.small {
		if !f(m.small[i].kv.key, m.small[i].kv.val) {
			return
		}
	}
}

func rangeNode[K comparable, V any](n *node[K, V], f func(K, V) bool) bool {
	if n.coll != nil {
		for i := range n.coll {
			if !f(n.coll[i].key, n.coll[i].val) {
				return false
			}
		}
		return true
	}
	for i := range n.entries {
		e := &n.entries[i]
		if e.child != nil {
			if !rangeNode(e.child, f) {
				return false
			}
			continue
		}
		if !f(e.kv.key, e.kv.val) {
			return false
		}
	}
	return true
}

// --- Deterministic hash helpers ---

// Mix64 finalizes an integer key with the splitmix64 mixer: adjacent inputs
// (sequential symbol IDs, small offsets) land in unrelated trie slots.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashString is 64-bit FNV-1a, fixed-seeded and process-independent.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
