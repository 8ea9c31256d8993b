package sched

import (
	"fmt"
	"os"
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
	// Opts configures the run. Opts.Workers is ignored: batch parallelism
	// is across jobs, each of which explores sequentially.
	Opts core.Options
}

// JobResult pairs a Job with its outcome.
type JobResult struct {
	Name   string
	Result *core.Result
	Err    error
}

// RunBatch runs every job against the network, fanning jobs across a
// bounded work-stealing pool (workers <= 0 selects GOMAXPROCS). Results are
// returned in job order regardless of scheduling, and each job's Result is
// identical to a standalone core.Run: jobs share the immutable network but
// no mutable state — every run has its own solver contexts, symbol
// namespace, and statistics.
//
// All jobs share one satisfiability memo cache (unless a job brings its
// own via Opts.SatMemo): batch queries re-issue near-identical constraint
// sequences, so later jobs answer most Sat checks from earlier jobs' work.
// Sharing is safe across workers and does not perturb results — cache hits
// replay the original computation's statistics (see solver.SatCache).
//
// A job whose exploration panics (a buggy model or engine defect) is
// reported as that job's error; sibling jobs are unaffected.
func RunBatch(net *core.Network, jobs []Job, workers int) []JobResult {
	return RunBatchObs(net, jobs, workers, nil)
}

// RunBatchObs is RunBatch with observability attached (see RunBatchStream);
// a nil o is exactly RunBatch.
func RunBatchObs(net *core.Network, jobs []Job, workers int, o *obs.Obs) []JobResult {
	out := make([]JobResult, len(jobs))
	RunBatchStream(net, jobs, workers, o, func(i int, jr JobResult) {
		out[i] = jr
	})
	// Jobs routinely share one Options value, so a caller-supplied stats
	// collector would be hammered from every worker; fold per-job stats in
	// here after the pool has drained (counter sums commute, so totals match
	// a sequential run).
	for i, j := range jobs {
		if j.Opts.Stats != nil && out[i].Result != nil {
			j.Opts.Stats.Add(out[i].Result.Stats.Solver)
			// Rebind finished paths to the caller's collector so post-batch
			// follow-up queries keep counting, exactly as a standalone
			// core.Run with the same Options would (see Exploration.Finish).
			for _, p := range out[i].Result.Paths {
				p.Ctx.SetStats(j.Opts.Stats)
			}
		}
	}
	return out
}

// RunBatchStream is RunBatch with streaming delivery: done(i, result) is
// invoked once per job as it finishes, from the finishing worker's
// goroutine and in completion (not job) order — the callback must be safe
// for concurrent invocation. Caller-supplied Opts.Stats collectors are not
// consulted (a shared collector would race across workers); streaming
// callers read each Result's own Stats, and RunBatch folds them after the
// pool drains. RunBatchStream returns after every job has been delivered.
//
// o attaches scheduler telemetry (per-worker task latencies, steals, one
// "job" span per job) and becomes each job's Options.Obs unless the job
// brought its own; nil disables instrumentation.
func RunBatchStream(net *core.Network, jobs []Job, workers int, o *obs.Obs, done func(i int, jr JobResult)) {
	// The batch-shared cache exists only for jobs that bring none. A resident
	// caller (a Session, the churn service) hands every job its own, and a
	// cache registered here per batch would pile up in its registry.
	var memo *solver.SatCache
	if slices.ContainsFunc(jobs, func(j Job) bool { return j.Opts.SatMemo == nil }) {
		memo = solver.NewSatCache()
	}
	if o != nil {
		memo.RegisterMetrics(o.Reg)
	}
	NewPool(workers).MapObs(len(jobs), o, func(w, i int) {
		done(i, runJob(net, jobs[i], memo, o, w))
	})
}

// runJob executes one job on scheduler worker w, the same way under
// RunBatchStream and under a Queue: exploration is sequential (parallelism is
// across jobs), a job without its own SatMemo shares memo, a caller's Stats
// collector is not consulted, o becomes the job's Options.Obs unless it
// brought one, and the run is one "job" span. A panic anywhere under the
// exploration becomes that job's error: without the recover, one poisoned
// query would tear down the whole batch (and, distributed, the whole worker
// process with every sibling job on it).
func runJob(net *core.Network, j Job, memo *solver.SatCache, o *obs.Obs, w int) (jr JobResult) {
	opts := j.Opts
	opts.Workers = 0
	if opts.SatMemo == nil {
		opts.SatMemo = memo
	}
	opts.Stats = nil
	if opts.Obs == nil {
		opts.Obs = o
	}
	jr.Name = j.Name
	defer o.Span("job", j.Name, w)()
	defer func() {
		if p := recover(); p != nil {
			// The stack goes to stderr (which distributed workers pass
			// through to the coordinator), not into the error: a one-line
			// panic value cannot locate an engine defect, but error strings
			// must stay deterministic — they are part of the byte-identical
			// results contract, and stacks differ across processes.
			fmt.Fprintf(os.Stderr, "sched: job %q panicked: %v\n%s", j.Name, p, debug.Stack())
			jr.Result, jr.Err = nil, fmt.Errorf("sched: job %q panicked: %v", j.Name, p)
		}
	}()
	jr.Result, jr.Err = core.Run(net, j.Inject, j.Packet, opts)
	return jr
}
