package churn

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/models"
	"symnet/internal/sefl"
	"symnet/internal/tables"
	"symnet/internal/verify"
)

// diffFIB has >= 4 routes per port so every port guard lowers to a span
// table, plus nested prefixes so deltas churn exclusion sets.
func diffFIB() tables.FIB {
	return tables.FIB{
		{Prefix: 0x0A000000, Len: 8, Port: 0},  // 10.0.0.0/8
		{Prefix: 0x0A010000, Len: 16, Port: 1}, // 10.1.0.0/16
		{Prefix: 0x0A010200, Len: 24, Port: 2}, // 10.1.2.0/24
		{Prefix: 0x14000000, Len: 8, Port: 1},  // 20.0.0.0/8
		{Prefix: 0x1E000000, Len: 8, Port: 2},  // 30.0.0.0/8
		{Prefix: 0x1E280000, Len: 16, Port: 0}, // 30.40.0.0/16
		{Prefix: 0x28000000, Len: 8, Port: 0},  // 40.0.0.0/8
		{Prefix: 0x32000000, Len: 8, Port: 1},  // 50.0.0.0/8
		{Prefix: 0x3C000000, Len: 8, Port: 2},  // 60.0.0.0/8
		{Prefix: 0x46000000, Len: 8, Port: 0},  // 70.0.0.0/8
		{Prefix: 0x50000000, Len: 8, Port: 2},  // 80.0.0.0/8
		{Prefix: 0, Len: 0, Port: 0},           // default
	}
}

func diffMACs() tables.MACTable {
	t := tables.MACTable{{MAC: 0x02AA00000001, Port: 0}}
	for p := 1; p <= 3; p++ {
		for h := 0; h < 4; h++ {
			t = append(t, tables.MACEntry{MAC: uint64(0x020000000000) | uint64(p)<<8 | uint64(h), Port: p})
		}
	}
	return t
}

// buildDiffNet builds the differential fixture from scratch: a switch
// fronting three host segments and an upstream router with three networks
// behind it. Rebuilding it from the service's current tables must reproduce
// the resident state byte for byte.
func buildDiffNet(t testing.TB, fib tables.FIB, tbl tables.MACTable) *core.Network {
	t.Helper()
	n := core.NewNetwork()
	sw := n.AddElement("sw", "switch", 4, 4)
	if err := models.Switch(sw, tbl, models.Egress); err != nil {
		t.Fatal(err)
	}
	rt := n.AddElement("rt", "router", 1, 3)
	if err := models.Router(rt, fib, models.Egress); err != nil {
		t.Fatal(err)
	}
	hosts := n.AddElement("hosts", "sink", 3, 0)
	hosts.SetInCode(core.WildcardPort, sefl.NoOp{})
	n.MustLink("sw", 0, "rt", 0)
	for p := 1; p <= 3; p++ {
		n.MustLink("sw", p, "hosts", p-1)
	}
	for p := 0; p < 3; p++ {
		sink := n.AddElement(fmt.Sprintf("net%d", p), "sink", 1, 0)
		sink.SetInCode(0, sefl.NoOp{})
		n.MustLink("rt", p, sink.Name, 0)
	}
	return n
}

func compareReports(t *testing.T, label string, got, want *verify.AllPairsReport) {
	t.Helper()
	if !reflect.DeepEqual(got.Reachable, want.Reachable) {
		t.Fatalf("%s: reachability matrix mismatch:\n got %v\nwant %v", label, got.Reachable, want.Reachable)
	}
	if !reflect.DeepEqual(got.PathCount, want.PathCount) {
		t.Fatalf("%s: path count matrix mismatch:\n got %v\nwant %v", label, got.PathCount, want.PathCount)
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Stats != w.Stats {
			t.Fatalf("%s: source %d stats mismatch:\n got %+v\nwant %+v", label, i, g.Stats, w.Stats)
		}
		if len(g.Paths) != len(w.Paths) {
			t.Fatalf("%s: source %d path count %d != %d", label, i, len(g.Paths), len(w.Paths))
		}
		for j := range w.Paths {
			gp, wp := g.Paths[j], w.Paths[j]
			if gp.ID != wp.ID || gp.Status != wp.Status || gp.FailMsg != wp.FailMsg {
				t.Fatalf("%s: source %d path %d header mismatch: {%d %v %q} != {%d %v %q}",
					label, i, j, gp.ID, gp.Status, gp.FailMsg, wp.ID, wp.Status, wp.FailMsg)
			}
			if !reflect.DeepEqual(gp.Trace, wp.Trace) {
				t.Fatalf("%s: source %d path %d trace mismatch:\n got %v\nwant %v", label, i, j, gp.Trace, wp.Trace)
			}
			if !reflect.DeepEqual(gp.History(), wp.History()) {
				t.Fatalf("%s: source %d path %d history mismatch:\n got %v\nwant %v", label, i, j, gp.History(), wp.History())
			}
		}
	}
}

// TestServiceDifferential is the incremental-verification soundness pin:
// after every delta in a mixed FIB/MAC stream, the resident report must be
// byte-identical — results, traces, histories, and full run statistics — to
// a from-scratch all-pairs verification of a freshly built network holding
// the same rules, at every worker count.
func TestServiceDifferential(t *testing.T) {
	fds, err := GenFIBDeltas("rt", diffFIB(), "10.128.0.0/9", 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	mds, err := GenMACDeltas("sw", diffMACs(), 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []Delta
	for i := range fds {
		deltas = append(deltas, fds[i], mds[i])
	}

	sources := []core.PortRef{{Elem: "sw", Port: 1}, {Elem: "sw", Port: 2}}
	targets := []string{"hosts", "net0", "net1", "net2"}
	packet := sefl.NewTCPPacket()
	opts := core.Options{Trace: true}

	workerCounts := []int{1, 2, 8}
	svcs := make([]*Service, len(workerCounts))
	for k, w := range workerCounts {
		svc := NewService(Config{
			Net:     buildDiffNet(t, diffFIB(), diffMACs()),
			Sources: sources,
			Targets: targets,
			Packet:  packet,
			Opts:    opts,
			Runner:  dist.InProcess(w, nil),
		})
		svc.RegisterRouter("rt", diffFIB())
		svc.RegisterSwitch("sw", diffMACs())
		if err := svc.Init(); err != nil {
			t.Fatal(err)
		}
		svcs[k] = svc
	}

	check := func(step string) {
		fib := slices.Clone(svcs[0].routers["rt"])
		tbl := slices.Clone(svcs[0].switches["sw"])
		fresh, err := verify.AllPairsReachability(buildDiffNet(t, fib, tbl), sources, packet, targets, opts, dist.InProcess(2, nil))
		if err != nil {
			t.Fatalf("%s: fresh verification: %v", step, err)
		}
		for k, w := range workerCounts {
			compareReports(t, fmt.Sprintf("%s workers=%d", step, w), svcs[k].report, fresh)
		}
	}
	check("init")

	seen := map[Action]bool{}
	for di, d := range deltas {
		var first *BatchResult
		for k := range svcs {
			res, err := svcs[k].apply(d)
			if err != nil {
				t.Fatalf("delta %d (%s) workers=%d: %v", di, d, workerCounts[k], err)
			}
			if k == 0 {
				first = res
			} else if res.Action != first.Action || res.DirtySources != first.DirtySources {
				t.Fatalf("delta %d (%s): divergent absorption across worker counts: %+v vs %+v", di, d, res, first)
			}
		}
		seen[first.Action] = true
		check(fmt.Sprintf("delta %d (%s)", di, d))
	}

	// Force the rebuild tier: delete every remaining port-2 route so the
	// router's fork list shrinks, then verify the resident state still
	// matches a fresh build.
	fib := slices.Clone(svcs[0].routers["rt"])
	var last *BatchResult
	for _, r := range fib {
		if r.Port != 2 {
			continue
		}
		d := Delta{Elem: "rt", Op: OpDelete, Prefix: fmt.Sprintf("%s/%d", sefl.NumberToIP(r.Prefix), r.Len)}
		for k := range svcs {
			res, err := svcs[k].apply(d)
			if err != nil {
				t.Fatalf("rebuild delta %s workers=%d: %v", d, workerCounts[k], err)
			}
			if k == 0 {
				last = res
			}
		}
		seen[last.Action] = true
		check(fmt.Sprintf("rebuild delta %s", d))
	}
	if last == nil || last.Action != actionRebuilt {
		t.Fatalf("port-emptying delete did not hit the rebuild tier: %+v", last)
	}
	if !seen[actionPatched] || !seen[actionRebuilt] {
		t.Fatalf("delta stream did not exercise both patch and rebuild tiers: %v", seen)
	}
}
