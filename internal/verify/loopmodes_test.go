package verify_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/sefl"
)

// deptLoopRun is the default department's all-pairs under one loop mode:
// its run statistics summed over the sources, and its matrix rendered as
// benchmark/testdata/allpairs_dept.golden renders it (one "source target
// reachable paths" line per cell, sorted).
func deptLoopRun(t *testing.T, mode core.LoopMode) (core.RunStats, string) {
	t.Helper()
	d := datasets.NewDepartment(datasets.DefaultDepartment())
	sources, targets := d.AllPairs()
	var sum core.RunStats
	var lines []string
	for _, src := range sources {
		res, err := core.Run(d.Net, src, sefl.NewTCPPacket(), core.Options{MaxHops: 64, Loop: mode})
		if err != nil {
			t.Fatal(err)
		}
		sum.Paths += res.Stats.Paths
		sum.Delivered += res.Stats.Delivered
		sum.Failed += res.Stats.Failed
		sum.Looped += res.Stats.Looped
		sum.Hops += res.Stats.Hops
		for _, target := range targets {
			n := len(res.DeliveredAt(target, -1))
			lines = append(lines, fmt.Sprintf("%s %s %t %d", src, target, n > 0, n))
		}
	}
	slices.Sort(lines)
	return sum, strings.Join(lines, "\n") + "\n"
}

// TestLoopModesOnDepartment pins what each loop mode makes of the default
// department's all-pairs, as measured before snapshots became frozen
// references: LoopFull (the default) stops the 30 forwarding loops the walk
// without detection runs out to the hop budget, and keeps every cell of the
// matrix, path counts included, which is the benchmark's golden matrix;
// LoopAddrOnly stops 60 paths and changes 30 cells' path counts.
func TestLoopModesOnDepartment(t *testing.T) {
	golden, err := os.ReadFile("../../benchmark/testdata/allpairs_dept.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mode   core.LoopMode
		want   core.RunStats
		matrix string // SHA-256 of the rendered matrix
	}{
		{"off", core.LoopOff, core.RunStats{Paths: 3004, Delivered: 302, Failed: 2702, Hops: 2556}, fmt.Sprintf("%x", sha256.Sum256(golden))},
		{"full", core.LoopFull, core.RunStats{Paths: 1114, Delivered: 302, Failed: 782, Looped: 30, Hops: 1056}, fmt.Sprintf("%x", sha256.Sum256(golden))},
		{"addr", core.LoopAddrOnly, core.RunStats{Paths: 784, Delivered: 182, Failed: 542, Looped: 60, Hops: 606}, "6aca6b3d7433e1d4c24d76889ea9a7fb34081757cee44407cb42090747dff9ae"},
	} {
		got, text := deptLoopRun(t, tc.mode)
		if got != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, got, tc.want)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); sum != tc.matrix {
			t.Errorf("%s: matrix digest %s, want %s", tc.name, sum, tc.matrix)
		}
	}
}
