// Package dist distributes batch verification across worker processes: a
// coordinator shards a batch of independent jobs onto N fleet members (each
// running its own in-process worker pool), ships the network spec plus the
// compiled IR of every element-port program so workers skip recompilation,
// and collects results in job order.
//
// The determinism stack built by the in-process engine carries over intact:
// per-job results are interleaving-independent (frontier-order merge,
// per-task symbol bands) and Sat-cache hits replay the original
// computation's statistics, so a batch through any Runner — in-process at
// any width or a TCP fleet of any size — is byte-identical (as summaries) to
// sched.RunBatch(net, jobs, w); the property tests in this package pin it on
// the department, Stanford-backbone and fork-heavy datasets.
//
// Results cross the process boundary as Summaries: per-path status, failure
// message, port history, trace, and the solver context's chained structural
// fingerprint (a 128-bit digest of the path's entire assertion sequence),
// plus the full RunStats. On the wire a Summary is a string table plus the
// history tree the paths' forks share (each failure message, trace line and
// element name once, each port visit once), which the coordinator checks
// and expands into the very Summary that Summarize builds in-process. Live
// solver contexts and packet memory stay in the worker — follow-up queries
// that need them (field domains, concrete packets) belong on the worker
// side or in in-process runs.
//
// A fleet member is a resident process serving ServeListener — `symworker
// -listen`, or a binary that calls MaybeWorker under
// SYMNET_DIST_WORKER=listen=addr — dialled over TCP at one of
// Config.Workers' addresses. The coordinator spawns no workers of its own:
// a local worker process re-runs the engine the in-process scheduler
// already runs and pays encode, ship and decode on top, so one machine's
// cores are Config.WorkersPerProc's to use.
package dist

import (
	"fmt"
	"iter"

	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/obs"
	"symnet/internal/sched"
	"symnet/internal/sefl"
)

// Job is one independent verification query (shared with the in-process
// batch runner).
type Job = sched.Job

// PathSummary is the serializable face of one finished core.Path.
type PathSummary struct {
	ID      int
	Status  core.Status
	FailMsg string
	// Ports is the full port-visit history, oldest first.
	Ports []core.PortRef
	// Trace holds executed instructions when Options.Trace was set.
	Trace []string
	// CtxFp is the solver context's chained structural fingerprint — a
	// 128-bit digest of every condition the path asserted, in order. Equal
	// fingerprints identify (with overwhelming probability) identical
	// constraint states, which is what makes summaries a byte-exact proxy
	// for full results in the determinism property tests.
	CtxFp expr.Fp
}

// Summary is the serializable face of one core.Result.
type Summary struct {
	Paths []PathSummary
	Stats core.RunStats
}

// JobResult pairs a job with its outcome. Exactly one of Result and Summary
// is set on success: Result by the in-process runner (live paths, solver
// contexts, lazy histories — never summarized eagerly), Summary by a fleet
// (what crossed the wire). DeliveredAt and Histories read either; callers
// that need live paths read Result and accept nil from a fleet.
type JobResult struct {
	Name    string
	Result  *core.Result
	Summary *Summary
	Err     error
}

// DeliveredAt counts the paths that ended Delivered at the given element
// (any port when port < 0).
func (r *JobResult) DeliveredAt(elem string, port int) int {
	n := 0
	count := func(status core.Status, last core.PortRef) {
		if status == core.Delivered && last.Elem == elem && (port < 0 || last.Port == port) {
			n++
		}
	}
	if r.Summary != nil {
		for i := range r.Summary.Paths {
			if p := &r.Summary.Paths[i]; len(p.Ports) > 0 {
				count(p.Status, p.Ports[len(p.Ports)-1])
			}
		}
		return n
	}
	for _, p := range r.Result.Paths {
		count(p.Status, p.Last())
	}
	return n
}

// Histories yields every path's port-visit history, oldest port first, in
// path order and whatever the path's status.
func (r *JobResult) Histories() iter.Seq[[]core.PortRef] {
	return func(yield func([]core.PortRef) bool) {
		if r.Summary != nil {
			for i := range r.Summary.Paths {
				if !yield(r.Summary.Paths[i].Ports) {
					return
				}
			}
			return
		}
		for _, p := range r.Result.Paths {
			if !yield(p.History()) {
				return
			}
		}
	}
}

// Runner is the batch seam: everything above a batch — all-pairs reports,
// the churn service, the CLIs — runs jobs through one of these and reads the
// JobResults, whichever engine sits behind it. InProcess and NewPool build
// the two implementations; NewRunner picks between them.
type Runner interface {
	// RunBatch runs every job against the network and returns results in job
	// order.
	RunBatch(net *core.Network, jobs []Job) []JobResult
	// Refresh marks the named port programs changed since the last batch, so
	// a fleet's next RunBatch ships workers just those programs.
	Refresh(refs ...core.PortRef)
	// Invalidate marks everything changed (model rebuilds, restores); a
	// fleet's next RunBatch ships workers a full setup.
	Invalidate()
	// Close releases the runner's workers. The runner is unusable afterwards.
	Close() error
}

var _ Runner = (*Pool)(nil)

// inProcess is the Runner over the in-process scheduler. It reads the network
// it is handed on every batch, so Refresh, Invalidate and Close have nothing
// to do.
type inProcess struct {
	workers int
	o       *obs.Obs
}

// InProcess returns the Runner over the in-process scheduler: sched.RunBatch
// semantics (workers <= 0 selects GOMAXPROCS; o attaches scheduler telemetry,
// see sched.RunBatchStream) and live Results.
func InProcess(workers int, o *obs.Obs) Runner { return inProcess{workers, o} }

func (r inProcess) RunBatch(net *core.Network, jobs []Job) []JobResult {
	out := make([]JobResult, len(jobs))
	for i, jr := range sched.RunBatchObs(net, jobs, r.workers, r.o) {
		out[i] = JobResult{Name: jr.Name, Result: jr.Result, Err: jr.Err}
	}
	return out
}

func (inProcess) Refresh(...core.PortRef) {}
func (inProcess) Invalidate()             {}
func (inProcess) Close() error            { return nil }

// NewRunner is where the pool-or-in-process decision lives: a Config that
// names no fleet (no Workers addresses) yields InProcess at WorkersPerProc
// width, and one that does a Pool. Close the runner when done.
func NewRunner(cfg Config) (Runner, error) {
	if len(cfg.Workers) == 0 {
		return InProcess(cfg.WorkersPerProc, cfg.Obs), nil
	}
	p, err := NewPool(cfg)
	if err != nil {
		return nil, err // not a nil *Pool in a non-nil Runner
	}
	return p, nil
}

// Summarize reduces a Result to its wire summary. Distributed and
// in-process runs of the same job summarize identically; the property tests
// compare canonical encodings of these summaries.
func Summarize(res *core.Result) *Summary {
	s := &Summary{Stats: res.Stats, Paths: make([]PathSummary, len(res.Paths))}
	for i, p := range res.Paths {
		s.Paths[i] = PathSummary{
			ID:      p.ID,
			Status:  p.Status,
			FailMsg: p.FailMsg,
			Ports:   p.History(),
			Trace:   p.Trace,
			CtxFp:   p.Ctx.Fingerprint(),
		}
	}
	return s
}

// Config describes a Runner: which fleet, if any, and how it is driven.
type Config struct {
	// WorkersPerProc sizes each worker's in-process pool — or, without a
	// fleet, the in-process runner's (<= 0 selects GOMAXPROCS).
	WorkersPerProc int
	// Workers lists resident worker addresses (host:port of `symworker
	// -listen` processes), one TCP session each; empty means no fleet (see
	// NewRunner).
	Workers []string
	// Obs attaches coordinator-side observability. With a registry present,
	// workers are asked to collect metrics too and their end-of-shard
	// snapshots are absorbed into it, so the coordinator's registry reports
	// batch-wide totals (merge order cannot matter — see obs.Snapshot.Merge).
	// Telemetry never crosses into job execution: results are byte-identical
	// with Obs set or nil.
	Obs *obs.Obs
}

// shardBounds returns the contiguous job range of shard k of n.
func shardBounds(jobs, k, n int) (lo, hi int) {
	return k * jobs / n, (k + 1) * jobs / n
}

// buildSetup serializes the network, its compiled programs and their
// summarization verdicts once per full setup.
func buildSetup(net *core.Network) (*setupFrame, error) {
	wnet, err := core.EncodeNetwork(net)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	progs, err := core.EncodePrograms(net)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	sums, err := core.EncodeSummaries(net)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return &setupFrame{Net: wnet, Programs: progs, Summaries: sums}, nil
}

// buildShard converts one contiguous job range to wire jobs.
func buildShard(jobs []Job, lo, hi int) ([]wireJob, error) {
	out := make([]wireJob, 0, hi-lo)
	for i := lo; i < hi; i++ {
		j := jobs[i]
		pkt, err := sefl.EncodeInstr(j.Packet)
		if err != nil {
			return nil, fmt.Errorf("dist: job %q: %w", j.Name, err)
		}
		out = append(out, wireJob{
			Index:  i,
			Name:   j.Name,
			Inject: j.Inject,
			Packet: pkt,
			Opts:   toWireOptions(j.Opts),
		})
	}
	return out, nil
}
