package core_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/models"
	"symnet/internal/sefl"
)

// relay adds an element whose every input forwards to output 0.
func relay(net *core.Network, name string, in, out int) {
	net.AddElement(name, "relay", in, out).SetInCode(core.WildcardPort, sefl.Forward{Port: 0})
}

// TestCycleGate pins which input ports loop detection records visits at:
// exactly those a link from the same strongly connected component of the
// element graph enters.
func TestCycleGate(t *testing.T) {
	in := func(elem string, port int) core.PortRef { return core.PortRef{Elem: elem, Port: port} }
	for _, tc := range []struct {
		name  string
		build func(*core.Network)
		want  []core.PortRef
	}{
		{"diamond", func(net *core.Network) {
			net.AddElement("a", "fork", 1, 2).SetInCode(0, sefl.Fork{Ports: []int{0, 1}})
			relay(net, "b", 1, 1)
			relay(net, "c", 1, 1)
			relay(net, "d", 2, 0)
			net.MustLink("a", 0, "b", 0)
			net.MustLink("a", 1, "c", 0)
			net.MustLink("b", 0, "d", 0)
			net.MustLink("c", 0, "d", 1)
		}, nil},
		{"self-link", func(net *core.Network) {
			relay(net, "a", 2, 1)
			relay(net, "b", 1, 1)
			net.MustLink("a", 0, "a", 1)
			net.MustLink("b", 0, "a", 0)
		}, []core.PortRef{in("a", 1)}},
		{"2-cycle", func(net *core.Network) {
			relay(net, "in", 1, 1)
			relay(net, "a", 2, 1)
			relay(net, "b", 1, 1)
			net.MustLink("in", 0, "a", 0)
			net.MustLink("a", 0, "b", 0)
			net.MustLink("b", 0, "a", 1)
		}, []core.PortRef{in("a", 1), in("b", 0)}},
	} {
		net := core.NewNetwork()
		tc.build(net)
		if got := core.CyclePorts(net); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: marked %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCycleGateFollowsTopology: a link added after a Run closes a cycle the
// marks must then show, or the next Run walks the loop to its hop budget; and
// a network decoded from its wire form gets its coordinator's marks.
func TestCycleGateFollowsTopology(t *testing.T) {
	net := core.NewNetwork()
	relay(net, "a", 1, 2)
	relay(net, "b", 1, 1)
	net.MustLink("a", 0, "b", 0)
	inject := core.PortRef{Elem: "a", Port: 0}
	res, err := core.Run(net, inject, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.CyclePorts(net); res.Stats.Delivered != 1 || got != nil {
		t.Fatalf("before the back link: %+v, marked %v", res.Stats, got)
	}
	net.MustLink("b", 0, "a", 0)
	res, err = core.Run(net, inject, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Looped != 1 || res.Stats.Paths != 1 {
		t.Fatalf("after the back link: %+v, want one looped path", res.Stats)
	}

	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 8, Routes: 12, Seed: 5})
	w, err := core.EncodeNetwork(d.Net)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := core.DecodeNetwork(w)
	if err != nil {
		t.Fatal(err)
	}
	want := core.CyclePorts(d.Net)
	if len(want) == 0 {
		t.Fatal("the department has no port on a cycle")
	}
	if got := core.CyclePorts(decoded); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded network marks %v, coordinator %v", got, want)
	}
}

// resultImage renders a Result with everything a path carries:
// runFingerprint, then per path the model of its context (which covers every
// symbol the context has seen) and its assigned header fields with their
// values and domains.
func resultImage(t *testing.T, res *core.Result) string {
	s := runFingerprint(t, res)
	for _, p := range res.Paths {
		model, _ := p.Ctx().Model()
		syms := slices.Sorted(maps.Keys(model))
		for _, sym := range syms {
			s += fmt.Sprintf(" s%d=%d", sym, model[sym])
		}
		for _, f := range p.Mem.Fields() {
			if f.Set {
				s += fmt.Sprintf(" @%d/%d=%s:%s", f.Off, f.Size, f.Val, p.Ctx().Domain(f.Val))
			}
		}
		s += "\n"
	}
	return s
}

// TestLoopDetectionIsReadOnly: where full loop detection stops no path, it
// changes nothing — the results are those of a run without it, symbols,
// domains and statistics included. That holds on loop-free networks, where
// it records nothing, and on the TTL loop, where it records a snapshot at
// every visit and never fires.
func TestLoopDetectionIsReadOnly(t *testing.T) {
	fork, forkInject := datasets.ForkHeavy(16, 3, 4)
	router := core.NewNetwork()
	if err := models.Router(router.AddElement("R", "router", 1, 16), datasets.CoreFIB(2000, 16, 1), models.Egress); err != nil {
		t.Fatal(err)
	}
	for p := range 16 {
		host := fmt.Sprintf("h%d", p)
		router.AddElement(host, "host", 1, 0).SetInCode(0, sefl.NoOp{})
		router.MustLink("R", p, host, 0)
	}
	for _, tc := range []struct {
		name   string
		net    *core.Network
		inject core.PortRef
		packet sefl.Instr
	}{
		{"forkheavy", fork, forkInject, sefl.NewIPPacket()},
		{"splittcp", datasets.NewSplitTCP(datasets.SplitTCPConfig{Tunnel: true, ProxyRewritesMAC: true}), core.PortRef{Elem: "ap", Port: 0}, datasets.SplitTCPClientPacket()},
		{"egress router", router, core.PortRef{Elem: "R", Port: 0}, sefl.NewIPPacket()},
		{"ttl loop", ttlLoop(), core.PortRef{Elem: "A", Port: 0}, sefl.NewIPPacket()},
	} {
		var images [2]string
		for i, mode := range []core.LoopMode{core.LoopFull, core.LoopOff} {
			res, err := core.Run(tc.net, tc.inject, tc.packet, core.Options{Loop: mode})
			if err != nil {
				t.Fatal(err)
			}
			images[i] = resultImage(t, res)
		}
		if images[0] != images[1] {
			t.Errorf("%s: results differ with loop detection:\nfull %s\noff  %s", tc.name, images[0], images[1])
		}
	}
}

// ttlLoop is two routers forwarding to each other, one decrementing the TTL.
func ttlLoop() *core.Network {
	net := core.NewNetwork()
	net.AddElement("A", "r", 1, 1).SetInCode(0, sefl.Seq(
		sefl.Constrain{C: sefl.Ge(sefl.Ref{LV: sefl.IPTTL}, sefl.C(1))},
		sefl.Assign{LV: sefl.IPTTL, E: sefl.Sub{A: sefl.Ref{LV: sefl.IPTTL}, B: sefl.C(1)}},
		sefl.Forward{Port: 0},
	))
	net.AddElement("B", "r", 1, 1).SetInCode(0, sefl.Forward{Port: 0})
	net.MustLink("A", 0, "B", 0)
	net.MustLink("B", 0, "A", 0)
	return net
}

// TestForkHeavyLoopCheckAllocatesNothing: the fork-heavy network has no
// cycle, so full loop detection takes no snapshot and a run allocates what
// it allocates without it. AllocsPerRun counts the whole process, so the
// runtime's own few allocations are let through; one snapshot per hop
// would be thousands.
func TestForkHeavyLoopCheckAllocatesNothing(t *testing.T) {
	net, inject := datasets.ForkHeavy(64, 4, 8)
	hops := 0
	allocs := func(mode core.LoopMode) float64 {
		run := func() {
			res, err := core.Run(net, inject, sefl.NewIPPacket(), core.Options{Loop: mode})
			if err != nil {
				t.Fatal(err)
			}
			hops = res.Stats.Hops
		}
		run() // compile outside the count
		return testing.AllocsPerRun(5, run)
	}
	off, full := allocs(core.LoopOff), allocs(core.LoopFull)
	t.Logf("fork-heavy Run over %d hops: %.0f allocations with LoopFull, %.0f with LoopOff", hops, full, off)
	if full > off+2 {
		t.Fatalf("LoopFull allocates %.0f objects per run, LoopOff %.0f", full, off)
	}
}

func TestTTLDefeatsFullLoopDetection(t *testing.T) {
	// With a TTL decrement in the cycle, full-state comparison sees a new
	// state each time (paper: "the TTL field will always decrease"), so the
	// path only stops via TTL exhaustion or hop budget; AddrOnly mode
	// catches it immediately.
	inject := core.PortRef{Elem: "A", Port: 0}
	res, err := core.Run(ttlLoop(), inject, sefl.NewIPPacket(), core.Options{Loop: core.LoopAddrOnly})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Looped != 1 {
		t.Fatalf("AddrOnly must catch the loop: %+v", res.Stats)
	}
	resFull, err := core.Run(ttlLoop(), inject, sefl.NewIPPacket(), core.Options{Loop: core.LoopFull})
	if err != nil {
		t.Fatal(err)
	}
	// Full mode: the path circulates until the TTL constraint fails
	// (256 TTL values), not via loop detection.
	if resFull.Stats.Looped != 0 {
		t.Fatalf("Full mode should not flag the TTL loop: %+v", resFull.Stats)
	}
	if resFull.Stats.Failed != 1 {
		t.Fatalf("TTL exhaustion must eventually fail the path: %+v", resFull.Stats)
	}
}

// BenchmarkLoopFullTTL is full loop detection's worst case: on the TTL loop
// every visit to a port is compared with every earlier visit there, 256
// laps of them, and none subsumes it.
func BenchmarkLoopFullTTL(b *testing.B) {
	net := ttlLoop()
	inject := core.PortRef{Elem: "A", Port: 0}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := core.Run(net, inject, sefl.NewIPPacket(), core.Options{Loop: core.LoopFull}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDepartmentLoopCheckAllocatesOnlySnapshots replays every loop check of
// the default department's all-pairs: a check allocates the one snapshot a
// visit it records keeps, and nothing for comparing a visit with the
// snapshots before it. AllocsPerRun counts the whole process, so the
// runtime's own few allocations are let through.
func TestDepartmentLoopCheckAllocatesOnlySnapshots(t *testing.T) {
	d := datasets.NewDepartment(datasets.DefaultDepartment())
	sources, _ := d.AllPairs()
	var replays []func() (int, int)
	for _, src := range sources {
		replay, err := core.LoopCheckReplay(d.Net, src, sefl.NewTCPPacket(), core.Options{MaxHops: 64})
		if err != nil {
			t.Fatal(err)
		}
		replays = append(replays, replay)
	}
	recorded, compared := 0, 0
	all := func() {
		recorded, compared = 0, 0
		for _, replay := range replays {
			r, c := replay()
			recorded += r
			compared += c
		}
	}
	allocs := testing.AllocsPerRun(5, all)
	t.Logf("%d visits recorded, %d compared with an earlier snapshot: %.0f allocations", recorded, compared, allocs)
	if recorded == 0 || compared == 0 {
		t.Fatal("the department's walk recorded or compared nothing")
	}
	if allocs < float64(recorded) || allocs > float64(recorded)+2 {
		t.Fatalf("replaying the loop checks allocates %.0f objects, want one per recorded visit (%d)", allocs, recorded)
	}
}
