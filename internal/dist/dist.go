// Package dist distributes batch verification across worker processes: a
// coordinator shards a batch of independent jobs onto N fleet members (each
// running its own in-process worker pool), ships the network's topology
// plus the SEFL source of every element-port program, and collects results
// in job order. A member gets port source and jobs, nothing else: it
// compiles each port's source once, as it installs it, so its runs compile
// nothing, and a job carries only its budget (hops, paths, loop mode,
// trace). The reference semantics (Options.ASTInterp) run in-process only —
// a Pool refuses a job that sets it.
//
// The in-process determinism carries over intact: each job is one core.Run
// on one goroutine, independent of its siblings, and Sat-cache hits replay
// the original computation's statistics, so a batch through any Runner —
// in-process at any width or a TCP fleet of any size — is byte-identical (as
// summaries) to sched.RunBatch(net, jobs, w); the property tests in this
// package pin it on
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
// -listen`, or this package's test binary re-executed under
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
// (what crossed the wire). DeliveredAt and VisitedPorts read either; callers
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

// VisitedPorts yields every distinct port the job's paths visited, each
// once, whatever the path's status. In-process it reads the nodes of the
// paths' history tree (core.HistoryPorts), so no path's history is
// materialized; from a fleet it reads the Summary's Ports.
func (r *JobResult) VisitedPorts() iter.Seq[core.PortRef] {
	return func(yield func(core.PortRef) bool) {
		seen := make(map[core.PortRef]struct{})
		once := func(p core.PortRef) bool {
			if _, ok := seen[p]; ok {
				return true
			}
			seen[p] = struct{}{}
			return yield(p)
		}
		if r.Summary != nil {
			for i := range r.Summary.Paths {
				for _, p := range r.Summary.Paths[i].Ports {
					if !once(p) {
						return
					}
				}
			}
			return
		}
		for p := range core.HistoryPorts(r.Result.Paths) {
			if !once(p) {
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
	// Refresh marks the named code-table entries changed since the last
	// batch, so a fleet's next RunBatch ships workers just those entries'
	// source. It is the one way a fleet hears about code changes: a model
	// rebuild names every entry the model wrote.
	Refresh(refs ...core.PortRef)
	// Close releases the runner's workers. The runner is unusable afterwards.
	Close() error
}

var _ Runner = (*Pool)(nil)

// inProcess is the Runner over the in-process scheduler. It reads the network
// it is handed on every batch, so Refresh and Close have nothing to do.
type inProcess struct {
	workers int
	o       *obs.Obs
}

// InProcess returns the Runner over the in-process scheduler: sched.RunBatch
// semantics (workers <= 0 selects GOMAXPROCS; o attaches scheduler telemetry,
// see sched.RunBatchObs) and live Results.
func InProcess(workers int, o *obs.Obs) Runner { return inProcess{workers, o} }

func (r inProcess) RunBatch(net *core.Network, jobs []Job) []JobResult {
	out := make([]JobResult, len(jobs))
	for i, jr := range sched.RunBatchObs(net, jobs, r.workers, r.o) {
		out[i] = JobResult{Name: jr.Name, Result: jr.Result, Err: jr.Err}
	}
	return out
}

func (inProcess) Refresh(...core.PortRef) {}
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
			CtxFp:   p.CtxFp(),
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
	// batch-wide totals (absorb order cannot matter — see obs.Registry.Absorb).
	// Telemetry never crosses into job execution: results are byte-identical
	// with Obs set or nil.
	Obs *obs.Obs
}

// shardBounds returns the contiguous job range of shard k of n.
func shardBounds(jobs, k, n int) (lo, hi int) {
	return k * jobs / n, (k + 1) * jobs / n
}

// buildSetup serializes the network's topology and its port source once per
// full setup.
func buildSetup(net *core.Network) (*setupFrame, error) {
	wnet, err := core.EncodeNetwork(net)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	progs, err := core.EncodePrograms(net)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return &setupFrame{Net: wnet, Programs: progs}, nil
}

// buildShard converts one contiguous job range to wire jobs. A job that asks
// for a reference mode is refused: those exist to check the engine against,
// in-process, and a member runs only the default engine.
func buildShard(jobs []Job, lo, hi int) ([]wireJob, error) {
	out := make([]wireJob, 0, hi-lo)
	for i := lo; i < hi; i++ {
		j := jobs[i]
		if j.Opts.ASTInterp {
			return nil, fmt.Errorf("dist: job %q: Options.ASTInterp is a reference mode; run it in-process", j.Name)
		}
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
