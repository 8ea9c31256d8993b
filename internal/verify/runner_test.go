package verify_test

import (
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/sefl"
	"symnet/internal/verify"
)

// loopbackFleet serves n fleet members in-process on loopback listeners and
// returns their addresses.
func loopbackFleet(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go dist.ServeListener(ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

// TestAllPairsAcrossRunners pins the batch seam from above: the one
// all-pairs constructor, handed every kind of runner NewRunner builds,
// answers the same matrix and — source for source — the same summary bytes,
// whether the summary crossed the wire (Summaries) or is taken from the live
// result (dist.Summarize(Results[i])). It also pins which side of a
// JobResult each runner fills, never both.
func TestAllPairsAcrossRunners(t *testing.T) {
	dept := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 10, Routes: 16, Seed: 5})
	deptSrcs, deptTargets := dept.AllPairs()
	bb := datasets.StanfordBackbone(4, 24)
	bbSrcs, bbTargets := bb.AllPairs()
	datasets := []struct {
		name    string
		net     *core.Network
		srcs    []core.PortRef
		packet  sefl.Instr
		targets []string
		opts    core.Options
	}{
		{"department", dept.Net, deptSrcs, sefl.NewTCPPacket(), deptTargets, core.Options{MaxHops: 64}},
		{"backbone", bb.Net, bbSrcs, sefl.NewIPPacket(), bbTargets, core.Options{}},
	}
	runners := []dist.Config{{WorkersPerProc: 1}, {WorkersPerProc: 2}, {WorkersPerProc: 8}}
	if !testing.Short() {
		runners = append(runners, dist.Config{Workers: loopbackFleet(t, 2), WorkersPerProc: 1})
	}
	for _, ds := range datasets {
		var want *verify.AllPairsReport
		var wantSums []string
		for _, cfg := range runners {
			name := fmt.Sprintf("%s/fleet=%d/workers=%d", ds.name, len(cfg.Workers), cfg.WorkersPerProc)
			runner, err := dist.NewRunner(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := verify.AllPairsReachability(ds.net, ds.srcs, ds.packet, ds.targets, ds.opts, runner)
			runner.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sums := make([]string, len(ds.srcs))
			for i := range ds.srcs {
				fleet := len(cfg.Workers) > 0
				if (got.Summaries[i] != nil) != fleet || (got.Results[i] != nil) == fleet {
					t.Fatalf("%s: source %d has Result %v and Summary %v; a fleet sets only Summary, in-process only Result",
						name, i, got.Results[i] != nil, got.Summaries[i] != nil)
				}
				sum := got.Summaries[i]
				if !fleet {
					sum = dist.Summarize(got.Results[i])
				}
				b, err := json.Marshal(sum)
				if err != nil {
					t.Fatal(err)
				}
				sums[i] = string(b)
			}
			if want == nil {
				want, wantSums = got, sums
				continue
			}
			if !reflect.DeepEqual(got.Reachable, want.Reachable) {
				t.Errorf("%s: Reachable differs\n got: %v\nwant: %v", name, got.Reachable, want.Reachable)
			}
			if !reflect.DeepEqual(got.PathCount, want.PathCount) {
				t.Errorf("%s: PathCount differs\n got: %v\nwant: %v", name, got.PathCount, want.PathCount)
			}
			for i := range sums {
				if sums[i] != wantSums[i] {
					t.Errorf("%s: source %s summary differs from the one-worker in-process run\n got: %.300s\nwant: %.300s",
						name, ds.srcs[i], sums[i], wantSums[i])
				}
			}
		}
	}
}
