// Package memory implements the symbolic packet state of SymNet: header
// fields allocated at explicit bit offsets with per-field value *stacks*
// (allocation masks, deallocation unmasks), stacked tags for layering, and a
// metadata map with global or per-module-instance visibility.
//
// The paper's memory-safety guarantees are enforced here: header accesses
// must exactly match an existing allocation's offset and size; deallocation
// sizes are checked; reads of unallocated or unassigned fields fail the
// path. All failure modes return *accessError so the engine can turn them
// into failed paths with precise messages.
//
// Mem values are persistent: the field, metadata and tag stores are
// structure-sharing maps (internal/persist) over immutable per-field layer
// chains, so the engine's If/Fork path duplication is a constant-size header
// copy and mutation copies only the touched trie spine, as in the paper
// ("all the state of packet 1 is replicated ... shared with a copy-on-write
// mechanism").
package memory

import (
	"fmt"
	"regexp"
	"sort"

	"symnet/internal/expr"
	"symnet/internal/persist"
)

// GlobalScope marks metadata visible to every element in the network.
const GlobalScope = -1

// MetaKey identifies a metadata entry: a name plus the owning element
// instance (GlobalScope for global metadata).
type MetaKey struct {
	Name     string
	Instance int
}

func (k MetaKey) String() string {
	if k.Instance == GlobalScope {
		return k.Name
	}
	return fmt.Sprintf("%s@%d", k.Name, k.Instance)
}

// accessError describes a packet-memory safety violation.
type accessError struct {
	Op     string
	Detail string
}

func (e *accessError) Error() string { return "memory: " + e.Op + ": " + e.Detail }

func accessErr(op, format string, args ...any) *accessError {
	return &accessError{Op: op, Detail: fmt.Sprintf(format, args...)}
}

// layer is one allocation of a field, and its own history node. Layers are
// immutable; assignment replaces the top layer with a new one carrying the
// new value and pointing at the layer it replaced, so a write is one
// allocation and the chain of set layers down to the allocation is the
// field's assignment history.
//
// A layer is 48 bytes, the allocator's 48-byte size class: the width sits
// after the pointers as an int32, beside set, where an int before the value
// would take a layer to 56 bytes and the 64-byte class.
type layer struct {
	val   expr.Lin // current value (valid when set)
	older *layer   // the layer this assignment replaced (history), nil for an allocation
	prev  *layer   // masked layer beneath this allocation
	size  int32    // width in bits
	set   bool
}

// assign returns the layer holding v on top of l's allocation.
func (l *layer) assign(v expr.Lin) *layer {
	return &layer{size: l.size, val: v, set: true, older: l, prev: l.prev}
}

// history returns the assignment history of l's allocation, oldest first.
func (l *layer) history() []expr.Lin {
	var n int
	for p := l; p != nil && p.set; p = p.older {
		n++
	}
	out := make([]expr.Lin, n)
	for p := l; p != nil && p.set; p = p.older {
		n--
		out[n] = p.val
	}
	return out
}

// Mem is the symbolic packet state. The zero value is the "initial empty
// packet, with no header fields or metadata" the engine starts from.
//
// All three stores are persistent structure-sharing maps, so Clone is a
// constant-size header copy regardless of how many fields, metadata entries
// and tags have accumulated — the true copy-on-write packet replication the
// paper describes. Between forks a Mem edits its own structure in place
// (persist.Map.SetOwned under the Mem's edit token), so a run of writes
// copies each touched slice or trie spine once, not once per write.
type Mem struct {
	hdr  persist.Map[int64, *layer, offHash]
	meta persist.Map[MetaKey, *layer, metaHash]
	tags persist.Map[string, *tagNode, tagHash]
	// edit is the token the stores' in-place edits are stamped with; 0
	// until the first write after creation, Clone or Seal.
	edit uint64
}

// offHash, metaHash and tagHash hash the keys of the three stores.
type offHash struct{}
type metaHash struct{}
type tagHash struct{}

func (offHash) Hash(o int64) uint64 { return persist.Mix64(uint64(o)) }

func (metaHash) Hash(k MetaKey) uint64 {
	return persist.Mix64(persist.HashString(k.Name) ^ persist.Mix64(uint64(int64(k.Instance))))
}

func (tagHash) Hash(name string) uint64 { return persist.HashString(name) }

type tagNode struct {
	val  int64
	prev *tagNode
}

// CloneInto makes n an independent copy of m in O(1) and returns n: the
// persistent stores are shared wholesale and diverge by path copying on the
// first mutation of either side. Both sides give up the edit token, so
// neither edits the shared structure in place. CloneInto writes to the
// receiver only when it holds a token, so concurrent clones of a sealed Mem
// are race-free. The caller owns n's storage, so a fork can place the copy
// beside the rest of its path state (core's State.clone does).
func (m *Mem) CloneInto(n *Mem) *Mem {
	m.Seal()
	*n = *m
	return n
}

// Seal makes m read-only in place: its next write, if any, copies what it
// touches. The engine seals a path's memory when the path finishes, so the
// finished path's Mem may be cloned from any number of goroutines.
func (m *Mem) Seal() {
	if m.edit != 0 {
		m.edit = 0
	}
}

// owner returns m's edit token, minting one on the first write since
// creation, Clone or Seal.
func (m *Mem) owner() uint64 {
	if m.edit == 0 {
		m.edit = persist.NewOwner()
	}
	return m.edit
}

// --- Header fields ---

// AllocateHdr pushes a new allocation of size bits at bit offset off.
// Re-allocating the same (off, size) masks the previous value (a stack
// push); overlapping a *different* existing field is a safety violation.
func (m *Mem) AllocateHdr(off int64, size int) error {
	if size <= 0 || size > 64 {
		return accessErr("allocate", "invalid field size %d at offset %d", size, off)
	}
	if l, ok := m.hdr.Get(off); ok {
		if int(l.size) != size {
			return accessErr("allocate", "field at offset %d re-allocated with size %d, existing size %d", off, size, l.size)
		}
		m.hdr = m.hdr.SetOwned(off, &layer{size: int32(size), prev: l}, m.owner())
		return nil
	}
	if err := m.checkOverlap(off, size); err != nil {
		return err
	}
	m.hdr = m.hdr.SetOwned(off, &layer{size: int32(size)}, m.owner())
	return nil
}

// checkOverlap rejects an allocation [off, off+size) that intersects any
// existing field at a different offset.
func (m *Mem) checkOverlap(off int64, size int) error {
	end := off + int64(size)
	var err error
	m.hdr.Range(func(o int64, l *layer) bool {
		if o == off {
			return true
		}
		oEnd := o + int64(l.size)
		if off < oEnd && o < end {
			err = accessErr("allocate", "field [%d,%d) overlaps existing field [%d,%d)", off, end, o, oEnd)
			return false
		}
		return true
	})
	return err
}

// DeallocateHdr pops the top allocation at off. When size >= 0 it is checked
// against the allocated size (the paper's Deallocate(v, s) semantics).
func (m *Mem) DeallocateHdr(off int64, size int) error {
	l, ok := m.hdr.Get(off)
	if !ok {
		return accessErr("deallocate", "no field allocated at offset %d", off)
	}
	if size >= 0 && int(l.size) != size {
		return accessErr("deallocate", "field at offset %d has size %d, deallocation declared %d", off, l.size, size)
	}
	if l.prev == nil {
		m.hdr = m.hdr.Delete(off)
	} else {
		m.hdr = m.hdr.SetOwned(off, l.prev, m.owner())
	}
	return nil
}

// lookupHdr finds the field at (off, size) enforcing exact alignment.
func (m *Mem) lookupHdr(op string, off int64, size int) (*layer, error) {
	l, ok := m.hdr.Get(off)
	if !ok {
		// Distinguish "nothing there" from "unaligned" for better messages.
		var uerr error
		m.hdr.Range(func(o int64, f *layer) bool {
			oEnd := o + int64(f.size)
			if off >= o && off < oEnd {
				uerr = accessErr(op, "unaligned access at offset %d (field starts at %d)", off, o)
				return false
			}
			return true
		})
		if uerr != nil {
			return nil, uerr
		}
		return nil, accessErr(op, "access to unallocated offset %d", off)
	}
	if int(l.size) != size {
		return nil, accessErr(op, "size mismatch at offset %d: field is %d bits, access is %d bits", off, l.size, size)
	}
	return l, nil
}

// ReadHdr returns the current value of the field at (off, size).
func (m *Mem) ReadHdr(off int64, size int) (expr.Lin, error) {
	l, err := m.lookupHdr("read", off, size)
	if err != nil {
		return expr.Lin{}, err
	}
	if !l.set {
		return expr.Lin{}, accessErr("read", "field at offset %d read before assignment", off)
	}
	return l.val, nil
}

// AssignHdr sets the value of the field at (off, size), recording history.
func (m *Mem) AssignHdr(off int64, size int, v expr.Lin) error {
	l, err := m.lookupHdr("assign", off, size)
	if err != nil {
		return err
	}
	m.hdr = m.hdr.SetOwned(off, l.assign(v), m.owner())
	return nil
}

// HdrHistory returns the assignment history (oldest first) of the top
// allocation at (off, size).
func (m *Mem) HdrHistory(off int64, size int) ([]expr.Lin, error) {
	l, err := m.lookupHdr("history", off, size)
	if err != nil {
		return nil, err
	}
	return l.history(), nil
}

// HdrField describes one live (top-of-stack) header field.
type HdrField struct {
	Off  int64
	Size int
	Val  expr.Lin
	Set  bool
}

// Fields returns all live header fields sorted by offset.
func (m *Mem) Fields() []HdrField {
	out := make([]HdrField, 0, m.hdr.Len())
	m.hdr.Range(func(off int64, l *layer) bool {
		out = append(out, HdrField{Off: off, Size: int(l.size), Val: l.val, Set: l.set})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// --- Tags ---

// CreateTag pushes a tag value; tags are stacked so encapsulation can
// temporarily override (e.g. an inner L3 masked by an outer L3).
func (m *Mem) CreateTag(name string, val int64) {
	prev, _ := m.tags.Get(name)
	m.tags = m.tags.SetOwned(name, &tagNode{val: val, prev: prev}, m.owner())
}

// DestroyTag pops the top value of a tag.
func (m *Mem) DestroyTag(name string) error {
	t, ok := m.tags.Get(name)
	if !ok {
		return accessErr("destroy-tag", "tag %q does not exist", name)
	}
	if t.prev == nil {
		m.tags = m.tags.Delete(name)
	} else {
		m.tags = m.tags.SetOwned(name, t.prev, m.owner())
	}
	return nil
}

// Tag returns the current value of a tag.
func (m *Mem) Tag(name string) (int64, bool) {
	t, ok := m.tags.Get(name)
	if !ok {
		return 0, false
	}
	return t.val, true
}

// --- Metadata ---

// AllocateMeta pushes a metadata entry of the given bit width.
func (m *Mem) AllocateMeta(key MetaKey, width int) error {
	if width <= 0 || width > 64 {
		return accessErr("allocate", "invalid metadata width %d for %s", width, key)
	}
	prev, _ := m.meta.Get(key)
	m.meta = m.meta.SetOwned(key, &layer{size: int32(width), prev: prev}, m.owner())
	return nil
}

// DeallocateMeta pops the top entry for key. A negative size skips the size
// check.
func (m *Mem) DeallocateMeta(key MetaKey, width int) error {
	l, ok := m.meta.Get(key)
	if !ok {
		return accessErr("deallocate", "no metadata %s", key)
	}
	if width >= 0 && int(l.size) != width {
		return accessErr("deallocate", "metadata %s has width %d, deallocation declared %d", key, l.size, width)
	}
	if l.prev == nil {
		m.meta = m.meta.Delete(key)
	} else {
		m.meta = m.meta.SetOwned(key, l.prev, m.owner())
	}
	return nil
}

// ReadMeta returns the value of a metadata entry.
func (m *Mem) ReadMeta(key MetaKey) (expr.Lin, error) {
	l, ok := m.meta.Get(key)
	if !ok {
		return expr.Lin{}, accessErr("read", "no metadata %s", key)
	}
	if !l.set {
		return expr.Lin{}, accessErr("read", "metadata %s read before assignment", key)
	}
	return l.val, nil
}

// AssignMeta sets the value of a metadata entry, recording history.
func (m *Mem) AssignMeta(key MetaKey, v expr.Lin) error {
	l, ok := m.meta.Get(key)
	if !ok {
		return accessErr("assign", "no metadata %s", key)
	}
	m.meta = m.meta.SetOwned(key, l.assign(v), m.owner())
	return nil
}

// MetaExists reports whether key currently has an entry.
func (m *Mem) MetaExists(key MetaKey) bool {
	_, ok := m.meta.Get(key)
	return ok
}

// MetaWidth returns the declared width of a metadata entry.
func (m *Mem) MetaWidth(key MetaKey) (int, bool) {
	l, ok := m.meta.Get(key)
	if !ok {
		return 0, false
	}
	return int(l.size), true
}

// MetaKeysMatching returns a sorted snapshot of metadata names visible to
// instance (its local entries plus globals) whose name matches the pattern.
// This is the bounded iteration space of SEFL's For instruction.
func (m *Mem) MetaKeysMatching(re *regexp.Regexp, instance int) []MetaKey {
	var out []MetaKey
	m.meta.Range(func(k MetaKey, _ *layer) bool {
		if k.Instance != GlobalScope && k.Instance != instance {
			return true
		}
		if re.MatchString(k.Name) {
			out = append(out, k)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Instance < out[j].Instance
	})
	return out
}

// Var names one variable of a packet: the header field at (Off, Size), or,
// when Meta is set, the metadata entry Key.
type Var struct {
	Meta bool
	Off  int64
	Size int
	Key  MetaKey
}

// Vars calls f with every assigned variable and its value, header fields
// first, each store in its own order, until f returns false. It sorts
// nothing and allocates nothing.
func (m *Mem) Vars(f func(Var, expr.Lin) bool) {
	more := true
	m.hdr.Range(func(off int64, l *layer) bool {
		if l.set {
			more = f(Var{Off: off, Size: int(l.size)}, l.val)
		}
		return more
	})
	if !more {
		return
	}
	m.meta.Range(func(k MetaKey, l *layer) bool {
		return !l.set || f(Var{Meta: true, Key: k}, l.val)
	})
}

// Value returns the value of v. ok is false when v is unallocated or
// unassigned, or is a header field allocated at another size: where
// ReadHdr and ReadMeta return an error, Value allocates nothing.
func (m *Mem) Value(v Var) (expr.Lin, bool) {
	var l *layer
	var ok bool
	if v.Meta {
		l, ok = m.meta.Get(v.Key)
	} else if l, ok = m.hdr.Get(v.Off); ok && int(l.size) != v.Size {
		return expr.Lin{}, false
	}
	if !ok || !l.set {
		return expr.Lin{}, false
	}
	return l.val, true
}

// MetaEntry describes one live metadata binding.
type MetaEntry struct {
	Key MetaKey
	Val expr.Lin
	Set bool
}

// MetaEntries returns all live metadata entries, sorted by key.
func (m *Mem) MetaEntries() []MetaEntry {
	out := make([]MetaEntry, 0, m.meta.Len())
	m.meta.Range(func(k MetaKey, l *layer) bool {
		out = append(out, MetaEntry{Key: k, Val: l.val, Set: l.set})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Name != out[j].Key.Name {
			return out[i].Key.Name < out[j].Key.Name
		}
		return out[i].Key.Instance < out[j].Key.Instance
	})
	return out
}
