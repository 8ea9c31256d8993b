package verify_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/obs"
	"symnet/internal/sefl"
	"symnet/internal/verify"
)

// canon renders an all-pairs report to comparable bytes, whichever runner
// produced it: the reachability matrix plus every source's wire summary
// (path IDs, statuses, failure messages, port histories, traces, constraint
// fingerprints, run statistics).
func canon(t *testing.T, rep *verify.AllPairsReport) string {
	t.Helper()
	sums := make([]*dist.Summary, len(rep.Sources))
	for i := range sums {
		sums[i] = rep.Summary(i)
	}
	b, err := json.Marshal(map[string]any{
		"reachable": rep.Reachable, "counts": rep.PathCount, "summaries": sums,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// withObs returns opts with a fresh registry and JSONL tracer attached, plus
// the registry and trace path for post-run inspection.
func withObs(t *testing.T, opts core.Options) (core.Options, *obs.Registry, string) {
	t.Helper()
	reg := obs.NewRegistry()
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tf.Close() })
	opts.Obs = obs.New(reg, obs.NewTracer(tf))
	return opts, reg, tracePath
}

// TestObservabilityDoesNotPerturbResults is the inertness property the obs
// package promises: attaching a metrics registry and a span tracer — to the
// jobs and to the runner — changes no result bytes, at any in-process worker
// count and across a two-member fleet.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 8, Routes: 12, Seed: 5})
	srcs, targets := d.AllPairs()
	opts := core.Options{MaxHops: 64}

	base, err := verify.AllPairsReachability(d.Net, srcs, sefl.NewTCPPacket(), targets, opts, dist.InProcess(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := canon(t, base)

	cfgs := []dist.Config{{WorkersPerProc: 1}, {WorkersPerProc: 2}, {WorkersPerProc: 8}}
	if !testing.Short() {
		cfgs = append(cfgs, dist.Config{Workers: loopbackFleet(t, 2), WorkersPerProc: 2})
	}
	for _, cfg := range cfgs {
		name := fmt.Sprintf("procs=0/workers=%d", cfg.WorkersPerProc)
		if len(cfg.Workers) > 0 {
			name = fmt.Sprintf("fleet=%d/workers=%d", len(cfg.Workers), cfg.WorkersPerProc)
		}
		t.Run(name, func(t *testing.T) {
			oopts, reg, tracePath := withObs(t, opts)
			cfg.Obs = oopts.Obs
			runner, err := dist.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer runner.Close()
			rep, err := verify.AllPairsReachability(d.Net, srcs, sefl.NewTCPPacket(), targets, oopts, runner)
			if err != nil {
				t.Fatal(err)
			}
			if got := canon(t, rep); got != want {
				t.Errorf("results with obs attached differ from baseline\n got: %.300s\nwant: %.300s", got, want)
			}
			// Sanity that observability was actually live, not silently nil:
			// the per-pair counters and at least one span must have landed.
			snap := reg.Snapshot()
			pairs := snap.Counters["verify.pair.delivered"] + snap.Counters["verify.pair.unreachable"]
			if pairs != int64(rep.Pairs()) {
				t.Errorf("verify.pair counters = %d, want %d", pairs, rep.Pairs())
			}
			if info, err := os.Stat(tracePath); err != nil || info.Size() == 0 {
				t.Errorf("trace file empty (err=%v)", err)
			}
		})
	}
}
