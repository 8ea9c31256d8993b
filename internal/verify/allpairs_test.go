package verify_test

import (
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/sefl"
	"symnet/internal/verify"
)

func deptSources(d *datasets.Department) []core.PortRef {
	var srcs []core.PortRef
	for _, asw := range d.AccessSwitches {
		srcs = append(srcs, core.PortRef{Elem: asw, Port: 1})
	}
	srcs = append(srcs, core.PortRef{Elem: "exit", Port: 1})
	return srcs
}

func TestAllPairsReachabilityDepartment(t *testing.T) {
	cfg := datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 24, Routes: 40, Seed: 5}
	targets := []string{"internet", "mgmt"}
	for _, fixed := range []bool{false, true} {
		cfg.Fixed = fixed
		d := datasets.NewDepartment(cfg)
		srcs := deptSources(d)
		rep, err := verify.AllPairsReachability(d.Net, srcs, sefl.NewTCPPacket(), targets,
			core.Options{MaxHops: 64}, dist.InProcess(8, nil))
		if err != nil {
			t.Fatalf("fixed=%v: %v", fixed, err)
		}
		if len(rep.Sources)*len(rep.Targets) != len(srcs)*len(targets) {
			t.Fatalf("pairs = %d", len(rep.Sources)*len(rep.Targets))
		}
		// Every office source reaches the Internet through the ASA.
		for s := range d.AccessSwitches {
			if !rep.Reachable[s][0] {
				t.Errorf("fixed=%v: %s cannot reach internet", fixed, srcs[s])
			}
		}
		// The inbound management hole (§8.5): open before the fix, closed
		// after the admins update the static routes.
		inbound := len(srcs) - 1
		if got := rep.Reachable[inbound][1]; got == fixed {
			t.Errorf("fixed=%v: inbound->mgmt reachable = %v", fixed, got)
		}
	}
}

// TestAllPairsAgreesWithSingleRuns cross-checks the batched report against
// one core.Run per cell.
func TestAllPairsAgreesWithSingleRuns(t *testing.T) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{
		NumAccessSwitches: 3, HostsPerSwitch: 24, Routes: 40, Seed: 5})
	srcs := deptSources(d)
	targets := []string{"internet", "mgmt", "labs"}
	opts := core.Options{MaxHops: 64}
	rep, err := verify.AllPairsReachability(d.Net, srcs, sefl.NewTCPPacket(), targets, opts, dist.InProcess(4, nil))
	if err != nil {
		t.Fatal(err)
	}
	for s, src := range srcs {
		for ti, target := range targets {
			res, err := core.Run(d.Net, src, sefl.NewTCPPacket(), opts)
			if err != nil {
				t.Fatal(err)
			}
			reached := res.DeliveredAt(target, -1)
			if (len(reached) > 0) != rep.Reachable[s][ti] {
				t.Errorf("%s->%s: batch says %v, single run reaches it on %d paths",
					src, target, rep.Reachable[s][ti], len(reached))
			}
			if len(reached) != rep.PathCount[s][ti] {
				t.Errorf("%s->%s: batch counts %d paths, single run %d",
					src, target, rep.PathCount[s][ti], len(reached))
			}
		}
	}
}

// TestSolverQueriesOnParallelPaths exercises the solver's model, FieldDomain
// and FieldEndToEnd on the paths of one run: each path's solver context must
// remain independent of its siblings' and satisfiable.
func TestSolverQueriesOnParallelPaths(t *testing.T) {
	net := datasets.NewSplitTCP(datasets.SplitTCPConfig{ProxyRewritesMAC: true})
	res, err := core.Run(net, core.PortRef{Elem: "ap", Port: 0},
		datasets.SplitTCPClientPacket(), core.Options{MaxHops: 64})
	if err != nil {
		t.Fatal(err)
	}
	delivered := res.ByStatus(core.Delivered)
	if len(delivered) == 0 {
		t.Fatal("no delivered paths")
	}
	for _, p := range delivered {
		if _, ok := p.Ctx().Model(); !ok {
			t.Fatalf("path %d: constraints unsatisfiable", p.ID)
		}
		// The client packet constrains 40 <= IPLen <= 9000; every path's
		// domain must honor it.
		d, err := verify.FieldDomain(p, sefl.IPLen)
		if err != nil {
			t.Fatalf("path %d: FieldDomain(IPLen): %v", p.ID, err)
		}
		lo, okLo := d.Min()
		hi, okHi := d.Max()
		if !okLo || !okHi || lo < 40 || hi > 9000 {
			t.Errorf("path %d: IPLen domain %s outside [40,9000]", p.ID, d)
		}
		// The round trip crosses the mirror exactly once, which swaps the
		// IP addresses: IPSrc must NOT be end-to-end invariant, while
		// TcpDst (untouched by every box on the path) must be.
		if p.Last().Elem == "client" {
			swapped, err := verify.FieldEndToEnd(p, sefl.IPSrc)
			if err != nil {
				t.Fatalf("path %d: FieldEndToEnd(IPSrc): %v", p.ID, err)
			}
			if swapped {
				t.Errorf("path %d: IPSrc end-to-end invariant despite the mirror swap", p.ID)
			}
			kept, err := verify.FieldEndToEnd(p, sefl.TcpDst)
			if err != nil {
				t.Fatalf("path %d: FieldEndToEnd(TcpDst): %v", p.ID, err)
			}
			if !kept {
				t.Errorf("path %d: TcpDst not end-to-end invariant", p.ID)
			}
		}
	}
}
