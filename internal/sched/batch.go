// Package sched runs batches of independent verification queries. A Queue
// is a fixed set of workers draining jobs in arrival order, each job one
// core.Run on the worker's goroutine; RunBatch puts a whole batch through a
// Queue, and a fleet member runs its shard on one as the jobs arrive.
//
// Batches are deterministic at any width: jobs share the immutable network
// and at most a satisfiability memo, whose hits replay the original
// computation's statistics, so every job's Result is the standalone
// core.Run's whichever worker ran it and in whatever order.
package sched

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"

	"symnet/internal/core"
	"symnet/internal/obs"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// Job is one independent verification query: inject a packet, explore, keep
// the result. Batch workloads — all-pairs reachability, repair-and-verify
// loops that re-check many properties per candidate fix — are sets of Jobs.
type Job struct {
	// Name labels the job in its JobResult (e.g. "asw3->internet").
	Name string
	// Inject is the injection port.
	Inject core.PortRef
	// Packet builds the symbolic packet (sefl instruction trees are
	// immutable, so one value may be shared across jobs).
	Packet sefl.Instr
	// Opts configures the run. Opts.Workers is not read: every job explores
	// on one goroutine, and the batch's width is RunBatch's argument.
	Opts core.Options
}

// JobResult pairs a Job with its outcome.
type JobResult struct {
	Name   string
	Result *core.Result
	Err    error
}

// RunBatch runs every job against the network on a Queue of the given width
// (workers <= 0 selects GOMAXPROCS; never wider than the batch). Results are
// returned in job order regardless of scheduling, and each job's Result is
// identical to a standalone core.Run: jobs share the immutable network but
// no mutable state — every run has its own solver contexts, symbol
// namespace, and statistics.
//
// Jobs that bring no Opts.SatMemo share one memo created for the batch:
// batch queries re-issue near-identical constraint sequences, so later jobs
// answer most Sat checks from earlier jobs' work. Sharing is safe across
// workers and does not perturb results — cache hits replay the original
// computation's statistics (see solver.SatCache).
//
// A job whose exploration panics (a buggy model or engine defect) is
// reported as that job's error; sibling jobs are unaffected.
func RunBatch(net *core.Network, jobs []Job, workers int) []JobResult {
	return RunBatchObs(net, jobs, workers, nil)
}

// RunBatchObs is RunBatch with observability attached: o carries the queue's
// telemetry (per-worker task latencies, one "job" span per job, the batch
// memo's counters) and becomes each job's Options.Obs unless the job brought
// its own. A nil o is exactly RunBatch.
func RunBatchObs(net *core.Network, jobs []Job, workers int, o *obs.Obs) []JobResult {
	out := make([]JobResult, len(jobs))
	// The batch-shared memo exists only for jobs that bring none. A resident
	// caller (a Session, the churn service) hands every job its own, and a
	// memo registered here per batch would pile up in its registry.
	var memo *solver.SatCache
	if slices.ContainsFunc(jobs, func(j Job) bool { return j.Opts.SatMemo == nil }) {
		memo = solver.NewSatCache()
		if o != nil {
			memo.RegisterMetrics(o.Reg)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	q := newQueue(net, min(workers, len(jobs)), memo, o, func(i int, jr JobResult) {
		out[i] = jr
	})
	for i, j := range jobs {
		q.Add(i, j)
	}
	q.Close()
	return out
}

// runJob executes one job on queue worker w: a job without its own SatMemo
// shares memo (nil: a fresh one per run), o becomes the job's Options.Obs
// unless it brought one, and the run is one "job" span. A panic anywhere
// under the exploration becomes that job's error: without the recover, one
// poisoned query would tear down the whole batch (and, on a fleet member,
// the whole process with every sibling job on it).
func runJob(net *core.Network, j Job, memo *solver.SatCache, o *obs.Obs, w int) (jr JobResult) {
	opts := j.Opts
	if opts.SatMemo == nil {
		opts.SatMemo = memo
	}
	if opts.Obs == nil {
		opts.Obs = o
	}
	jr.Name = j.Name
	defer o.Span("job", j.Name, w)()
	defer func() {
		if p := recover(); p != nil {
			// The stack goes to stderr (which fleet members log), not into
			// the error: a one-line panic value cannot locate an engine
			// defect, but error strings must stay deterministic — they are
			// part of the byte-identical results contract, and stacks differ
			// across processes.
			fmt.Fprintf(os.Stderr, "sched: job %q panicked: %v\n%s", j.Name, p, debug.Stack())
			jr.Result, jr.Err = nil, fmt.Errorf("sched: job %q panicked: %v", j.Name, p)
		}
	}()
	jr.Result, jr.Err = core.Run(net, j.Inject, j.Packet, opts)
	return jr
}
