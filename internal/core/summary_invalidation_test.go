package core

// Regression tests for the invalidation contract of the merged cache entry
// (program + summary under one key): SetInCode and SetOutCode drop the whole
// entry, PatchedOutCode keeps the program and rebuilds the summary, and
// every one of them is scoped to the rebound port — or a stale summary would
// keep executing the old code after a rebind.

import (
	"fmt"
	"runtime"
	"testing"

	"symnet/internal/prog"
	"symnet/internal/sefl"
)

func summaryCacheFixture() (*Network, *Element) {
	net := NewNetwork()
	e := net.AddElement("dut", "dut", 2, 2)
	e.SetInCode(0, sefl.Forward{Port: 0})
	e.SetOutCode(1, sefl.NoOp{})
	return net, e
}

// populate compiles and summarizes one port, returning its cache entry and
// the summary it holds.
func populate(t *testing.T, e *Element, port int, out bool) (*portCode, *prog.Summary) {
	t.Helper()
	c, ok, _ := e.codeFor(port, out)
	if !ok {
		t.Fatalf("no code on port %d out=%v", port, out)
	}
	sum, _ := c.summary()
	if v, _ := e.code.Load(progKey{out: out, port: port}); v != c || c.sum.Load() != sum || sum == nil {
		t.Fatalf("cache entry not populated on port %d out=%v", port, out)
	}
	return c, sum
}

// cached returns the entry resident under a key, nil when there is none.
func cached(e *Element, port int, out bool) *portCode {
	v, ok := e.code.Load(progKey{out: out, port: port})
	if !ok {
		return nil
	}
	return v.(*portCode)
}

func TestSetInCodeInvalidatesProgramAndSummary(t *testing.T) {
	_, e := summaryCacheFixture()
	populate(t, e, 0, false)

	e.SetInCode(0, sefl.Forward{Port: 1})
	if cached(e, 0, false) != nil {
		t.Error("SetInCode left the cache entry (program and summary) resident")
	}

	// The rebound port must recompile and re-summarize to the new code.
	c, _, hit := e.codeFor(0, false)
	if hit {
		t.Error("program not recompiled after SetInCode")
	}
	sum, built := c.summary()
	if !built {
		t.Error("summary not rebuilt after SetInCode")
	}
	if !sum.OK() {
		t.Fatalf("rebound code unsummarizable: %s", sum.Reason)
	}
	root := sum.Nodes[sum.Root()]
	last := sum.Prog.Ops[root.Hi-1]
	if last.Kind != prog.OpForward || len(last.Ports) != 1 || last.Ports[0] != 1 {
		t.Errorf("rebuilt summary ends in %v -> %v, want a forward to [1] (the new code)", last.Kind, last.Ports)
	}
}

func TestSetOutCodeInvalidatesProgramAndSummary(t *testing.T) {
	_, e := summaryCacheFixture()
	populate(t, e, 1, true)

	e.SetOutCode(1, sefl.Constrain{C: sefl.CBool(true)})
	if cached(e, 1, true) != nil {
		t.Error("SetOutCode left the cache entry (program and summary) resident")
	}
	c, _, hit := e.codeFor(1, true)
	if hit {
		t.Error("program not recompiled after SetOutCode")
	}
	if _, built := c.summary(); !built {
		t.Error("summary not rebuilt after SetOutCode")
	}
}

// TestPatchedOutCodeKeepsProgramRebuildsSummary pins the one invalidation
// that splits the entry: an in-place guard patch keeps the program object
// (it is the thing that was patched) and replaces the summary, whose cached
// renders print the old guard.
func TestPatchedOutCodeKeepsProgramRebuildsSummary(t *testing.T) {
	_, e := summaryCacheFixture()
	c, sum := populate(t, e, 1, true)
	p := c.prog

	guard := sefl.Constrain{C: sefl.CBool(true)}
	e.PatchedOutCode(1, guard)
	if got := cached(e, 1, true); got != c || got.prog != p {
		t.Error("PatchedOutCode replaced the compiled program")
	}
	fresh := c.sum.Load()
	if fresh == nil || fresh == sum {
		t.Error("PatchedOutCode left the old summary in the entry")
	}
	if _, built := c.summary(); built {
		t.Error("PatchedOutCode left the summary to be rebuilt by the next visit")
	}
	if e.OutCode[1] != sefl.Instr(guard) {
		t.Error("PatchedOutCode did not record the new source AST")
	}
}

// TestSetCodeInvalidationIsPortScoped pins that rebinding or patching one
// port leaves the other ports' entries intact, and that ports sharing
// wildcard code share one entry that only a wildcard rebind drops.
func TestSetCodeInvalidationIsPortScoped(t *testing.T) {
	_, e := summaryCacheFixture()
	e.SetInCode(1, sefl.Forward{Port: 0})
	c0, s0 := populate(t, e, 0, false)
	populate(t, e, 1, false)
	e.SetOutCode(WildcardPort, sefl.NoOp{})
	cw, _, _ := e.codeFor(0, true) // out[0] has only the wildcard code
	sw, _ := cw.summary()
	if cached(e, WildcardPort, true) != cw {
		t.Fatal("a port covered by wildcard code is not cached under the wildcard key")
	}

	e.SetInCode(1, sefl.Forward{Port: 1})
	e.PatchedOutCode(1, sefl.NoOp{})
	if got := cached(e, 0, false); got != c0 || got.sum.Load() != s0 {
		t.Error("rebinding in[1] and patching out[1] disturbed in[0]'s entry")
	}
	if got := cached(e, WildcardPort, true); got != cw || got.sum.Load() != sw {
		t.Error("rebinding in[1] and patching out[1] disturbed the wildcard entry")
	}

	e.SetOutCode(WildcardPort, sefl.Constrain{C: sefl.CBool(true)})
	if cached(e, WildcardPort, true) != nil {
		t.Error("rebinding the wildcard code left its shared entry resident")
	}
}

// TestSummaryRebindBehavioral runs the engine across a rebind: results must
// track the new code, proving no stale summary survives end-to-end.
func TestSummaryRebindBehavioral(t *testing.T) {
	net := NewNetwork()
	e := net.AddElement("dut", "dut", 1, 2)
	e.SetInCode(0, sefl.Forward{Port: 0})
	a := net.AddElement("a", "sink", 1, 0)
	a.SetInCode(0, sefl.NoOp{})
	b := net.AddElement("b", "sink", 1, 0)
	b.SetInCode(0, sefl.NoOp{})
	net.MustLink("dut", 0, "a", 0)
	net.MustLink("dut", 1, "b", 0)

	opts := Options{MaxHops: 4}
	inj := PortRef{Elem: "dut", Port: 0}
	res, err := Run(net, inj, sefl.NoOp{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.DeliveredAt("a", -1)); got != 1 {
		t.Fatalf("before rebind: delivered at a = %d, want 1", got)
	}

	e.SetInCode(0, sefl.Forward{Port: 1})
	res, err = Run(net, inj, sefl.NoOp{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.DeliveredAt("b", -1)); got != 1 {
		t.Fatalf("after rebind: delivered at b = %d, want 1 — summary went stale", got)
	}
}

// summaryBytesCap is what one summarized straight-line element-port may
// retain beyond its compiled program and cache entry: the Summary itself
// (64 bytes) and a one-node slab (24) come to 88; a per-step list, a second
// per-element map or pointer-linked nodes would each blow through the cap.
const summaryBytesCap = 128

// TestSummaryResidentBytesPerStraightLinePort pins the resident cost of
// summarizing: engines hold thousands of branch-free element-ports (every
// hop of a chain), so a summary has to cost them next to nothing.
func TestSummaryResidentBytesPerStraightLinePort(t *testing.T) {
	const n = 2000
	build := func() *Network {
		net := NewNetwork()
		for i := 0; i < n; i++ {
			e := net.AddElement(fmt.Sprintf("pre%d", i), "chain", 1, 1)
			m := sefl.Meta{Name: "m"}
			e.SetInCode(0, sefl.Seq(
				sefl.Allocate{LV: m, Size: 32},
				sefl.Assign{LV: m, E: sefl.Symbolic{W: 32, Name: m.Name}},
				sefl.Constrain{C: sefl.Ge(sefl.Ref{LV: m}, sefl.C(uint64(i%7)))},
				sefl.Assign{LV: sefl.IPTTL, E: sefl.Sub{A: sefl.Ref{LV: sefl.IPTTL}, B: sefl.C(1)}},
				sefl.Forward{Port: 0},
			))
		}
		return net
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	net := build()
	for _, e := range net.Elements() {
		e.Programs() // compiled, not yet summarized
	}
	before := heap()
	if summarized, unsummarizable := Warm(net); summarized != n || unsummarizable != 0 {
		t.Fatalf("Warm summarized %d and refused %d of %d straight-line programs", summarized, unsummarizable, n)
	}
	after := heap()
	runtime.KeepAlive(net)
	per := (float64(after) - float64(before)) / n
	t.Logf("%.1f bytes retained per summarized straight-line element-port", per)
	if per > summaryBytesCap {
		t.Errorf("summaries retain %.1f bytes per straight-line element-port, cap %d", per, summaryBytesCap)
	}
}
