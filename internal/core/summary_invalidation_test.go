package core

// Regression tests for the invalidation contract of the code table:
// SetInCode and SetOutCode drop the port's compiled program, PatchedOutCode
// keeps it (it is the program prog.PatchGuard just patched, whose renders
// then print the new guard), and every one of them is scoped to the rebound
// port — or a stale program would keep executing the old code after a
// rebind.

import (
	"fmt"
	"runtime"
	"testing"

	"symnet/internal/expr"
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

// populate compiles one port, returning the program its cache entry holds.
func populate(t *testing.T, e *Element, port int, out bool) *prog.Program {
	t.Helper()
	p, ok, _ := e.codeFor(port, out)
	if !ok {
		t.Fatalf("no code on port %d out=%v", port, out)
	}
	if cached(e, port, out) != p {
		t.Fatalf("cache entry not populated on port %d out=%v", port, out)
	}
	return p
}

// cached returns the program resident under a key, nil when there is none.
func cached(e *Element, port int, out bool) *prog.Program {
	c := e.at(port, out).code
	if c == nil {
		return nil
	}
	return c.compiled.Load()
}

func TestSetInCodeInvalidatesProgramAndSummary(t *testing.T) {
	_, e := summaryCacheFixture()
	populate(t, e, 0, false)

	e.SetInCode(0, sefl.Forward{Port: 1})
	if cached(e, 0, false) != nil {
		t.Error("SetInCode left the compiled program resident")
	}

	// The rebound port must recompile to the new code.
	p, _, hit := e.codeFor(0, false)
	if hit {
		t.Error("program not recompiled after SetInCode")
	}
	last := p.Ops[len(p.Ops)-1]
	if last.Kind != prog.OpForward || len(last.Ports) != 1 || last.Ports[0] != 1 {
		t.Errorf("recompiled program ends in %v -> %v, want a forward to [1] (the new code)", last.Kind, last.Ports)
	}
}

func TestSetOutCodeInvalidatesProgramAndSummary(t *testing.T) {
	_, e := summaryCacheFixture()
	populate(t, e, 1, true)

	e.SetOutCode(1, sefl.Constrain{C: sefl.CBool(true)})
	if cached(e, 1, true) != nil {
		t.Error("SetOutCode left the compiled program resident")
	}
	if _, _, hit := e.codeFor(1, true); hit {
		t.Error("program not recompiled after SetOutCode")
	}
}

// macGuard is a switch-style egress guard over the listed MAC addresses.
func macGuard(macs ...uint64) sefl.Constrain {
	rows := make([]expr.GuardRow, len(macs))
	for i, m := range macs {
		rows[i] = expr.GuardRow{Kind: expr.GuardEq, V: m}
	}
	return sefl.Constrain{C: sefl.Table{F: sefl.EtherDst, Rows: rows}}
}

// TestPatchedOutCodeKeepsProgramRebuildsSummary pins the one invalidation
// that keeps the program: an in-place guard patch (prog.PatchGuard, then
// PatchedOutCode) keeps the program object, since it is the thing that was
// patched, and drops its cached renders, so the next traced run that fails
// the guard prints the new guard in its trace and its failure message.
func TestPatchedOutCodeKeepsProgramRebuildsSummary(t *testing.T) {
	net := NewNetwork()
	e := net.AddElement("dut", "dut", 1, 2)
	e.SetInCode(0, sefl.Forward{Port: 1})
	e.SetOutCode(1, macGuard(0x10, 0x20, 0x40, 0x50))
	inj := PortRef{Elem: "dut", Port: 0}
	packet := sefl.Seq(sefl.NewTCPPacket(), sefl.Assign{LV: sefl.EtherDst, E: sefl.CW(0x30, sefl.MACWidth)})
	failing := func(guard sefl.Constrain) {
		t.Helper()
		res, err := Run(net, inj, packet, Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Paths) != 1 || res.Paths[0].Status != Failed {
			t.Fatalf("%d paths, want one failing the guard", len(res.Paths))
		}
		p := res.Paths[0]
		if want := fmt.Sprintf("constraint unsatisfiable: %s", guard.C); p.FailMsg != want {
			t.Errorf("failure message %q, want %q", p.FailMsg, want)
		}
		if want := fmt.Sprintf("dut: %s", guard); p.Trace[len(p.Trace)-1] != want {
			t.Errorf("last trace line %q, want %q", p.Trace[len(p.Trace)-1], want)
		}
	}
	failing(macGuard(0x10, 0x20, 0x40, 0x50)) // renders the old guard into the program

	p := cached(e, 1, true)
	guard := macGuard(0x10, 0x20, 0x40, 0x50, 0x60)
	if n := prog.PatchGuard(p, prog.GuardTables(p)[0].Table.Fp(), guard); n != 1 {
		t.Fatalf("PatchGuard patched %d guards, want 1", n)
	}
	e.PatchedOutCode(1, guard)
	if cached(e, 1, true) != p {
		t.Error("PatchedOutCode replaced the compiled program")
	}
	if src, _ := e.Code(1, true); fmt.Sprint(src) != fmt.Sprint(guard) {
		t.Error("PatchedOutCode did not record the new source AST")
	}
	failing(guard)
}

// TestSetCodeInvalidationIsPortScoped pins that rebinding or patching one
// port leaves the other ports' programs intact, and that ports sharing
// wildcard code share one program that only a wildcard rebind drops.
func TestSetCodeInvalidationIsPortScoped(t *testing.T) {
	_, e := summaryCacheFixture()
	e.SetInCode(1, sefl.Forward{Port: 0})
	p0 := populate(t, e, 0, false)
	populate(t, e, 1, false)
	e.SetOutCode(WildcardPort, sefl.NoOp{})
	pw, _, _ := e.codeFor(0, true) // out[0] has only the wildcard code
	if cached(e, WildcardPort, true) != pw {
		t.Fatal("a port covered by wildcard code is not cached under the wildcard key")
	}

	e.SetInCode(1, sefl.Forward{Port: 1})
	e.PatchedOutCode(1, sefl.NoOp{})
	if cached(e, 0, false) != p0 {
		t.Error("rebinding in[1] and patching out[1] disturbed in[0]'s program")
	}
	if cached(e, WildcardPort, true) != pw {
		t.Error("rebinding in[1] and patching out[1] disturbed the wildcard program")
	}

	e.SetOutCode(WildcardPort, sefl.Constrain{C: sefl.CBool(true)})
	if cached(e, WildcardPort, true) != nil {
		t.Error("rebinding the wildcard code left its shared program resident")
	}
}

// TestSummaryRebindBehavioral runs the engine across a rebind: results must
// track the new code, proving no stale program survives end-to-end.
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
		t.Fatalf("after rebind: delivered at b = %d, want 1 — program went stale", got)
	}
}

// summaryBytesCap is what running a straight-line element-port may leave
// resident beyond its compiled program. Its render slots (a trace line and
// a failure message per op) come to 104 bytes for the five ops below, so a
// program that allocated them on an untraced, non-failing visit would blow
// through the cap.
const summaryBytesCap = 32

// TestSummaryResidentBytesPerStraightLinePort pins the resident cost of
// running a compiled program: engines hold thousands of branch-free
// element-ports (every hop of a chain), so visiting one untraced, with no
// failing constraint, must leave nothing behind — its render slots stay
// unallocated until something renders.
func TestSummaryResidentBytesPerStraightLinePort(t *testing.T) {
	const n = 2000
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
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	Warm(net)
	before := heap()
	for _, e := range net.Elements() {
		res, err := Run(net, PortRef{Elem: e.Name, Port: 0}, sefl.NewTCPPacket(), Options{})
		if err != nil || res.Stats.Delivered != 1 {
			t.Fatalf("%s: %+v, %v; want one delivered path", e.Name, res, err)
		}
	}
	after := heap()
	runtime.KeepAlive(net)
	per := (float64(after) - float64(before)) / n
	t.Logf("%.1f bytes retained per visited straight-line element-port", per)
	if per > summaryBytesCap {
		t.Errorf("visiting retains %.1f bytes per straight-line element-port, cap %d", per, summaryBytesCap)
	}
}
