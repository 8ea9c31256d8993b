package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// collected reports whether the finalizer that closes freed runs within a
// few collections.
func collected(freed <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestResultDoesNotPinExploration keeps a resident Result from holding its
// run alive. Every path's solver context points at the statistics collector
// the run counts into, and Result.Alloc continues the run's allocator, so
// both are allocated on their own: as fields of the run they would let each
// finished Path keep the stack and the run reachable for as long as a
// report holds the Path.
func TestResultDoesNotPinExploration(t *testing.T) {
	net := NewNetwork()
	a := net.AddElement("A", "branch", 1, 2)
	a.SetInCode(0, sefl.If{
		C:    sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.C(80)),
		Then: sefl.Forward{Port: 0},
		Else: sefl.Forward{Port: 1},
	})
	sink(net, "B0")
	sink(net, "B1")
	net.MustLink("A", 0, "B0", 0)
	net.MustLink("A", 1, "B1", 0)

	freed := make(chan struct{})
	res := func() *Result {
		r, err := newRun(net, PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(r, func(*run) { close(freed) })
		res, err := r.explore()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	if !collected(freed) {
		t.Fatal("the run is still reachable from its Result")
	}
	if res.Stats.Delivered != 2 {
		t.Fatalf("want 2 delivered paths, got %+v", res.Stats)
	}
}

// TestForkBoxDoesNotPinState keeps the state out of the box a fork
// allocates for its memory and solver headers. A finished Path keeps both
// headers, so the box lives as long as the Path; with the state inside it,
// every resident Path would also keep a state it no longer needs.
func TestForkBoxDoesNotPinState(t *testing.T) {
	st := &state{Mem: new(memory.Mem), Ctx: solver.NewContext(nil)}
	freed := make(chan struct{})
	mem, ctx := func() (*memory.Mem, *solver.Context) {
		n := st.clone()
		runtime.SetFinalizer(n, func(*state) { close(freed) })
		return n.Mem, n.Ctx
	}()
	if !collected(freed) {
		t.Fatal("a forked State is still reachable from its memory and solver headers")
	}
	runtime.KeepAlive(mem)
	runtime.KeepAlive(ctx)
}

// TestResultAllocFreshAfterRun guards the post-run allocator contract:
// symbols minted from Result.Alloc for follow-up queries must not collide
// with any symbol the run allocated (the run's symbols start at ID 0, so a
// result allocator rewound to zero would silently alias the packet's
// fields). The packet forks three ways and each branch mints a fresh
// symbol after the fork; the branches share one allocator, so the three
// must be pairwise distinct too.
func TestResultAllocFreshAfterRun(t *testing.T) {
	net := NewNetwork()
	net.AddElement("F", "fork", 1, 3).SetInCode(0, sefl.Fork{Ports: []int{0, 1, 2}})
	for p := 0; p < 3; p++ {
		nat := fmt.Sprintf("N%d", p)
		net.AddElement(nat, "nat", 1, 1).SetInCode(0, sefl.Seq(
			sefl.Assign{LV: sefl.TcpSrc, E: sefl.Symbolic{W: 16, Name: "rewritten"}},
			sefl.Forward{Port: 0},
		))
		sink(net, "S"+nat)
		net.MustLink("F", p, nat, 0)
		net.MustLink(nat, 0, "S"+nat, 0)
	}

	res, err := Run(net, PortRef{Elem: "F", Port: 0}, sefl.NewTCPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != 3 {
		t.Fatalf("want 3 delivered paths, got %+v", res.Stats)
	}
	used := make(map[expr.SymID]bool)
	minted := make(map[expr.SymID]bool)
	for _, p := range res.Paths {
		for _, f := range p.Mem.Fields() {
			if f.Set && !f.Val.IsConst() {
				used[f.Val.Sym] = true
			}
		}
		l4, _ := p.Mem.Tag(sefl.TagL4)
		src, err := p.Mem.ReadHdr(l4, 16)
		if err != nil || src.IsConst() {
			t.Fatalf("path %d: TcpSrc %s (%v) is not a fresh symbol", p.ID, src, err)
		}
		minted[src.Sym] = true
	}
	if len(minted) != 3 {
		t.Fatalf("three branches minted %d distinct symbols: %v", len(minted), minted)
	}
	for i := 0; i < 4; i++ {
		fresh := res.Alloc.Fresh(16)
		if used[fresh.Sym] {
			t.Fatalf("post-run Fresh returned ID %d, already used by the run", fresh.Sym)
		}
	}
}

// TestHistoryNodeSize pins the layout dense port IDs buy: a state's position
// is a pointer to its port's record, not a 32-byte PortRef, and a history
// node — the one allocation every port visit makes — is that pointer, its
// predecessor and its length, 24 bytes where a PortRef made it 48.
func TestHistoryNodeSize(t *testing.T) {
	var st state
	if n := unsafe.Sizeof(st.Here); n > unsafe.Sizeof(uintptr(0)) {
		t.Errorf("state.Here is %d bytes, wider than a pointer", n)
	}
	if n := unsafe.Sizeof(*st.hist); n != 24 {
		t.Errorf("a history node is %d bytes, want 24", n)
	}
}

// TestForkHeaderSizes pins the headers a fork copies and a finished path
// keeps: a solver context is its two stores, one pointer to the rare
// constraints (nil without any) and one to its run; a packet memory its
// three stores, whose hash is a type, and an edit token; a store header
// keeps no count. A Path keeps a refuted departure's frozen context and
// guard instead of a context of its own. A fork's box is a context and a
// memory, 248 bytes in the 256-byte size class; a loop snapshot is a memory
// and the context's domain stores. A header or metadata write allocates one
// memory layer, which fits the 48-byte size class.
func TestForkHeaderSizes(t *testing.T) {
	// The layer type is memory's own: reach it as the value type of the
	// header store's inline entries.
	hdr, _ := reflect.TypeOf(memory.Mem{}).FieldByName("hdr")
	small, _ := hdr.Type.FieldByName("small")
	kv, _ := small.Type.Elem().FieldByName("kv")
	val, _ := kv.Type.FieldByName("val")
	layer := val.Type.Elem()
	for _, c := range []struct {
		name     string
		got, max uintptr
	}{
		{"solver.Context", unsafe.Sizeof(solver.Context{}), 120},
		{"memory.Mem", unsafe.Sizeof(memory.Mem{}), 128},
		{"core.Path", unsafe.Sizeof(Path{}), 96},
		{"fork box", unsafe.Sizeof(forkBox{}), 248},
		{"loop snapshot", unsafe.Sizeof(snapshot{}), 224},
		{layer.String(), layer.Size(), 48},
	} {
		t.Logf("%s: %d bytes (at most %d)", c.name, c.got, c.max)
		if c.got > c.max {
			t.Errorf("%s is %d bytes, more than %d", c.name, c.got, c.max)
		}
	}
}

// TestPortNameRenderedOnce: Network.PortName renders a port as
// PortRef.String does, the wildcard and a port the network lacks included,
// and a port it has is rendered once: asking again allocates nothing.
func TestPortNameRenderedOnce(t *testing.T) {
	net := NewNetwork()
	net.AddElement("sw", "switch", 2, 3)
	for _, ref := range []PortRef{
		{Elem: "sw", Port: 1}, {Elem: "sw", Port: 2, Out: true}, {Elem: "sw", Port: WildcardPort, Out: true},
		{Elem: "sw", Port: 7}, {Elem: "nope", Port: 0},
	} {
		if got, want := net.PortName(ref), ref.String(); got != want {
			t.Fatalf("PortName(%#v) = %q, want %q", ref, got, want)
		}
	}
	ref := PortRef{Elem: "sw", Port: 1}
	if n := testing.AllocsPerRun(10, func() { net.PortName(ref) }); n != 0 {
		t.Fatalf("asking for a rendered name again allocates %.0f objects", n)
	}
}
