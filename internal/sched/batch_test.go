package sched_test

import (
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/sched"
	"symnet/internal/sefl"
)

func TestRunBatchMatchesIndividualRuns(t *testing.T) {
	d := smallDepartment(false)
	opts := core.Options{MaxHops: 64}
	var jobs []sched.Job
	for _, asw := range d.AccessSwitches {
		jobs = append(jobs, sched.Job{
			Name:   asw + "->out",
			Inject: core.PortRef{Elem: asw, Port: 1},
			Packet: d.OfficePacket(false),
			Opts:   opts,
		})
	}
	jobs = append(jobs, sched.Job{
		Name:   "inbound",
		Inject: core.PortRef{Elem: "exit", Port: 1},
		Packet: sefl.NewTCPPacket(),
		Opts:   opts,
	})
	for _, workers := range []int{1, 4, 8} {
		results := sched.RunBatch(d.Net, jobs, workers)
		if len(results) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(results), len(jobs))
		}
		for i, jr := range results {
			if jr.Name != jobs[i].Name {
				t.Fatalf("workers=%d: result %d named %q, want %q", workers, i, jr.Name, jobs[i].Name)
			}
			if jr.Err != nil {
				t.Fatalf("workers=%d: job %s: %v", workers, jr.Name, jr.Err)
			}
			solo, err := core.Run(d.Net, jobs[i].Inject, jobs[i].Packet, opts)
			if err != nil {
				t.Fatalf("solo run %s: %v", jobs[i].Name, err)
			}
			if got, want := fingerprint(jr.Result), fingerprint(solo); got != want {
				t.Errorf("workers=%d: job %s differs from standalone run", workers, jr.Name)
			}
		}
	}
}

func TestRunBatchReportsPerJobErrors(t *testing.T) {
	d := smallDepartment(false)
	jobs := []sched.Job{
		{Name: "good", Inject: core.PortRef{Elem: "asw0", Port: 1}, Packet: d.OfficePacket(false), Opts: core.Options{MaxHops: 64}},
		{Name: "bad", Inject: core.PortRef{Elem: "nosuch", Port: 0}, Packet: sefl.NewTCPPacket()},
	}
	results := sched.RunBatch(d.Net, jobs, 4)
	if results[0].Err != nil {
		t.Fatalf("good job failed: %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "nosuch") {
		t.Fatalf("bad job error = %v", results[1].Err)
	}
	if results[1].Result != nil {
		t.Fatal("failed job carries a result")
	}
}
