package memory

import (
	"regexp"
	"testing"

	"symnet/internal/expr"
)

func lin(v uint64, w int) expr.Lin { return expr.Const(v, w) }

func TestHdrAllocateAssignRead(t *testing.T) {
	m := new(Mem)
	if err := m.AllocateHdr(96, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadHdr(96, 32); err == nil {
		t.Fatal("read before assignment must fail")
	}
	if err := m.AssignHdr(96, 32, lin(0x0a000001, 32)); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadHdr(96, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v.ConstVal(); got != 0x0a000001 {
		t.Fatalf("read %#x", got)
	}
}

func TestHdrUnalignedAccess(t *testing.T) {
	m := new(Mem)
	m.AllocateHdr(96, 32)
	m.AssignHdr(96, 32, lin(1, 32))
	if _, err := m.ReadHdr(100, 32); err == nil {
		t.Fatal("offset inside a field must be an unaligned access error")
	}
	if _, err := m.ReadHdr(96, 16); err == nil {
		t.Fatal("size mismatch must fail")
	}
	if _, err := m.ReadHdr(500, 8); err == nil {
		t.Fatal("unallocated offset must fail")
	}
}

func TestHdrOverlapRejected(t *testing.T) {
	m := new(Mem)
	m.AllocateHdr(0, 48)
	if err := m.AllocateHdr(32, 48); err == nil {
		t.Fatal("overlapping allocation must fail")
	}
	if err := m.AllocateHdr(48, 48); err != nil {
		t.Fatalf("adjacent allocation must succeed: %v", err)
	}
	if err := m.AllocateHdr(0, 32); err == nil {
		t.Fatal("same-offset different-size allocation must fail")
	}
}

func TestHdrStacking(t *testing.T) {
	// The paper's encryption model: re-allocating TcpPayload masks the
	// original value; deallocation restores it.
	m := new(Mem)
	m.AllocateHdr(320, 64)
	m.AssignHdr(320, 64, lin(0xdead, 64))
	if err := m.AllocateHdr(320, 64); err != nil {
		t.Fatal(err)
	}
	if hdrStackDepth(m, 320) != 2 {
		t.Fatalf("depth = %d", hdrStackDepth(m, 320))
	}
	m.AssignHdr(320, 64, lin(0xbeef, 64))
	v, _ := m.ReadHdr(320, 64)
	if got, _ := v.ConstVal(); got != 0xbeef {
		t.Fatalf("masked read %#x", got)
	}
	if err := m.DeallocateHdr(320, 64); err != nil {
		t.Fatal(err)
	}
	v, _ = m.ReadHdr(320, 64)
	if got, _ := v.ConstVal(); got != 0xdead {
		t.Fatalf("unmasked read %#x, want original", got)
	}
}

func TestHdrDeallocateSizeCheck(t *testing.T) {
	m := new(Mem)
	m.AllocateHdr(0, 32)
	if err := m.DeallocateHdr(0, 16); err == nil {
		t.Fatal("deallocate size mismatch must fail")
	}
	if err := m.DeallocateHdr(64, 32); err == nil {
		t.Fatal("deallocate of unallocated offset must fail")
	}
	if err := m.DeallocateHdr(0, 32); err != nil {
		t.Fatal(err)
	}
	if hdrAllocated(m, 0, 32) {
		t.Fatal("field must be gone")
	}
}

func TestHdrHistory(t *testing.T) {
	m := new(Mem)
	m.AllocateHdr(0, 8)
	m.AssignHdr(0, 8, lin(1, 8))
	m.AssignHdr(0, 8, lin(2, 8))
	m.AssignHdr(0, 8, lin(3, 8))
	h, err := m.HdrHistory(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 3 {
		t.Fatalf("history length %d", len(h))
	}
	for i, want := range []uint64{1, 2, 3} {
		if got, _ := h[i].ConstVal(); got != want {
			t.Fatalf("hist[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	m := new(Mem)
	m.AllocateHdr(0, 8)
	m.AssignHdr(0, 8, lin(1, 8))
	m.CreateTag("L3", 112)
	m.AllocateMeta(MetaKey{Name: "k", Instance: GlobalScope}, 16)
	m.AssignMeta(MetaKey{Name: "k", Instance: GlobalScope}, lin(9, 16))

	c := m.CloneInto(new(Mem))
	c.AssignHdr(0, 8, lin(2, 8))
	c.CreateTag("L3", 999)
	c.AssignMeta(MetaKey{Name: "k", Instance: GlobalScope}, lin(10, 16))

	v, _ := m.ReadHdr(0, 8)
	if got, _ := v.ConstVal(); got != 1 {
		t.Fatalf("original header mutated: %d", got)
	}
	if tag, _ := m.Tag("L3"); tag != 112 {
		t.Fatalf("original tag mutated: %d", tag)
	}
	mv, _ := m.ReadMeta(MetaKey{Name: "k", Instance: GlobalScope})
	if got, _ := mv.ConstVal(); got != 9 {
		t.Fatalf("original metadata mutated: %d", got)
	}
	// Clone sees its own values.
	cv, _ := c.ReadHdr(0, 8)
	if got, _ := cv.ConstVal(); got != 2 {
		t.Fatalf("clone header wrong: %d", got)
	}
	// History diverges but shares the common prefix.
	h, _ := c.HdrHistory(0, 8)
	if len(h) != 2 {
		t.Fatalf("clone history %v", h)
	}
}

func TestTagStacking(t *testing.T) {
	m := new(Mem)
	m.CreateTag("L3", 112)
	m.CreateTag("L3", -48) // encapsulation pushes a new L3
	if v, _ := m.Tag("L3"); v != -48 {
		t.Fatalf("tag = %d", v)
	}
	if err := m.DestroyTag("L3"); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Tag("L3"); v != 112 {
		t.Fatalf("tag after destroy = %d, want the masked value back", v)
	}
	m.DestroyTag("L3")
	if _, ok := m.Tag("L3"); ok {
		t.Fatal("tag must be gone")
	}
	if err := m.DestroyTag("L3"); err == nil {
		t.Fatal("destroying a missing tag must fail")
	}
}

func TestMetaScoping(t *testing.T) {
	m := new(Mem)
	g := MetaKey{Name: "orig-ip", Instance: GlobalScope}
	l1 := MetaKey{Name: "orig-ip", Instance: 1}
	l2 := MetaKey{Name: "orig-ip", Instance: 2}
	m.AllocateMeta(g, 32)
	m.AllocateMeta(l1, 32)
	m.AllocateMeta(l2, 32)
	m.AssignMeta(g, lin(100, 32))
	m.AssignMeta(l1, lin(1, 32))
	m.AssignMeta(l2, lin(2, 32))
	// Cascaded NATs: each instance reads its own value.
	v1, _ := m.ReadMeta(l1)
	v2, _ := m.ReadMeta(l2)
	if a, _ := v1.ConstVal(); a != 1 {
		t.Fatalf("instance 1 sees %d", a)
	}
	if b, _ := v2.ConstVal(); b != 2 {
		t.Fatalf("instance 2 sees %d", b)
	}
	re := regexp.MustCompile("^orig-")
	keys := m.MetaKeysMatching(re, 1)
	if len(keys) != 2 { // global + own local, not instance 2's
		t.Fatalf("visible keys for instance 1: %v", keys)
	}
}

func TestMetaStacking(t *testing.T) {
	m := new(Mem)
	k := MetaKey{Name: "Key", Instance: GlobalScope}
	m.AllocateMeta(k, 16)
	m.AssignMeta(k, lin(7, 16))
	m.AllocateMeta(k, 16)
	m.AssignMeta(k, lin(8, 16))
	v, _ := m.ReadMeta(k)
	if got, _ := v.ConstVal(); got != 8 {
		t.Fatalf("top = %d", got)
	}
	m.DeallocateMeta(k, 16)
	v, _ = m.ReadMeta(k)
	if got, _ := v.ConstVal(); got != 7 {
		t.Fatalf("after pop = %d", got)
	}
}

func TestMetaKeysSnapshotSorted(t *testing.T) {
	m := new(Mem)
	for _, name := range []string{"OPT9", "OPT2", "OPT30", "SIZE2"} {
		m.AllocateMeta(MetaKey{Name: name, Instance: GlobalScope}, 8)
	}
	keys := m.MetaKeysMatching(regexp.MustCompile("^OPT"), GlobalScope)
	if len(keys) != 3 {
		t.Fatalf("keys: %v", keys)
	}
	if keys[0].Name != "OPT2" || keys[1].Name != "OPT30" || keys[2].Name != "OPT9" {
		t.Fatalf("keys not sorted: %v", keys)
	}
}

func TestFieldsEnumeration(t *testing.T) {
	m := new(Mem)
	m.AllocateHdr(48, 48)
	m.AllocateHdr(0, 48)
	m.AssignHdr(0, 48, lin(0xa, 48))
	fs := m.Fields()
	if len(fs) != 2 || fs[0].Off != 0 || fs[1].Off != 48 {
		t.Fatalf("fields: %+v", fs)
	}
	if !fs[0].Set || fs[1].Set {
		t.Fatalf("set flags wrong: %+v", fs)
	}
}

// TestVarsAndValue: Vars visits each assigned variable once, header fields
// and metadata, and stops when asked; Value reads each back, and refuses an
// unassigned or missing variable and a header field at another size. Neither
// allocates.
func TestVarsAndValue(t *testing.T) {
	m := new(Mem)
	m.AllocateHdr(0, 48)
	m.AssignHdr(0, 48, lin(0xa, 48))
	m.AllocateHdr(48, 16) // allocated, never assigned
	key := MetaKey{Name: "t", Instance: GlobalScope}
	m.AllocateMeta(key, 32)
	m.AssignMeta(key, lin(7, 32))
	got := map[Var]expr.Lin{}
	m.Vars(func(v Var, l expr.Lin) bool {
		got[v] = l
		return true
	})
	hdr, meta := Var{Off: 0, Size: 48}, Var{Meta: true, Key: key}
	if want := map[Var]expr.Lin{hdr: lin(0xa, 48), meta: lin(7, 32)}; len(got) != len(want) || got[hdr] != want[hdr] || got[meta] != want[meta] {
		t.Fatalf("Vars visited %v, want %v", got, want)
	}
	visits := 0
	m.Vars(func(Var, expr.Lin) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("Vars went on for %d visits after f returned false", visits)
	}
	for v, want := range got {
		if l, ok := m.Value(v); !ok || l != want {
			t.Fatalf("Value(%+v) = %v, %v; want %v", v, l, ok, want)
		}
	}
	for _, v := range []Var{{Off: 48, Size: 16}, {Off: 0, Size: 32}, {Off: 96, Size: 8}, {Meta: true, Key: MetaKey{Name: "u"}}} {
		if l, ok := m.Value(v); ok {
			t.Fatalf("Value(%+v) = %v, want none", v, l)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		m.Vars(func(v Var, _ expr.Lin) bool {
			_, ok := m.Value(v)
			return ok
		})
		m.Value(Var{Off: 0, Size: 32})
	}); n != 0 {
		t.Fatalf("Vars and Value allocate %.0f objects", n)
	}
}

// hdrAllocated reports whether a field is allocated exactly at (off, size).
func hdrAllocated(m *Mem, off int64, size int) bool {
	l, ok := m.hdr.Get(off)
	return ok && int(l.size) == size
}

// hdrStackDepth returns how many allocations are stacked at off (0 if none).
func hdrStackDepth(m *Mem, off int64) int {
	n := 0
	l, _ := m.hdr.Get(off)
	for ; l != nil; l = l.prev {
		n++
	}
	return n
}

// tags returns the current value of every tag.
func tags(m *Mem) map[string]int64 {
	out := make(map[string]int64, m.tags.Len())
	m.tags.Range(func(k string, v *tagNode) bool {
		out[k] = v.val
		return true
	})
	return out
}
