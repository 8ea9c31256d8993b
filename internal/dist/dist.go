// Package dist distributes batch verification across worker processes: a
// coordinator shards a batch of independent jobs onto N subprocesses (each
// running its own in-process worker pool), ships the network spec plus the
// compiled IR of every element-port program so workers skip recompilation,
// and collects results in job order.
//
// The determinism stack built by the in-process engine carries over intact:
// per-job results are interleaving-independent (frontier-order merge,
// per-task symbol bands) and Sat-cache hits replay the original
// computation's statistics, so dist.RunBatch(net, jobs, procs, workers) is
// byte-identical to sched.RunBatch(net, jobs, w) for every (procs, workers)
// pair — the property tests in this package pin it on the department,
// Stanford-backbone and fork-heavy datasets.
//
// Results cross the process boundary as Summaries: per-path status, failure
// message, port history, trace, and the solver context's chained structural
// fingerprint (a 128-bit digest of the path's entire assertion sequence),
// plus the full RunStats. Live solver contexts and packet memory stay in
// the worker — follow-up queries that need them (field domains, concrete
// packets) belong on the worker side or in in-process runs.
//
// Worker processes are fork/exec'd: cmd/symworker is the standalone worker
// binary, and any binary that calls MaybeWorker() early in main (the
// symnet/symbench CLIs, the test binaries) can serve as its own worker,
// which is the default — RunBatch re-executes the current binary.
package dist

import (
	"fmt"

	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/obs"
	"symnet/internal/sched"
	"symnet/internal/sefl"
	"symnet/internal/solver"
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

// JobResult pairs a job with its distributed outcome.
type JobResult struct {
	Name    string
	Summary *Summary
	Err     error
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

// DeliveredAt counts the paths that ended Delivered at the given element
// (any port when port < 0), mirroring core.Result.DeliveredAt.
func (s *Summary) DeliveredAt(elem string, port int) int {
	n := 0
	for i := range s.Paths {
		p := &s.Paths[i]
		if p.Status != core.Delivered || len(p.Ports) == 0 {
			continue
		}
		last := p.Ports[len(p.Ports)-1]
		if last.Elem == elem && (port < 0 || last.Port == port) {
			n++
		}
	}
	return n
}

// Config tunes a distributed batch.
type Config struct {
	// Procs is the number of worker subprocesses. <= 0 runs the batch
	// in-process (sched.RunBatch semantics, summarized) — the zero Config
	// never forks.
	Procs int
	// WorkersPerProc sizes each worker's in-process pool (<= 0 selects the
	// worker's GOMAXPROCS).
	WorkersPerProc int
	// ShareSat enables the coordinator-mediated Sat-verdict exchange, so
	// workers benefit from each other's solver work exactly as jobs in one
	// process share a SatCache. Results are identical either way.
	ShareSat bool
	// WorkerCmd is the argv of the worker subprocess. Empty re-executes the
	// current binary (which must call MaybeWorker early in main);
	// cmd/symworker is the standalone alternative.
	WorkerCmd []string
	// WorkerEnv appends extra environment entries to spawned workers.
	WorkerEnv []string
	// Workers lists resident worker addresses (host:port of `symworker
	// -listen` processes). When non-empty the fleet is one TCP session per
	// address and Procs is ignored; WorkerCmd/WorkerEnv do not apply (the
	// remote process was started by whoever runs that machine).
	Workers []string
	// Retries is each job's crash re-dispatch budget: a job lost to a dying
	// worker is re-sent to a survivor up to Retries times before failing
	// with a per-job error. 0 selects the default (2); negative disables
	// recovery — the first crash loses the job, as before the fleet runner.
	Retries int
	// NoSteal disables work stealing and the held-back tail, restoring
	// static contiguous shards. Results are byte-identical either way; the
	// switch exists for measurement and for pinning schedule-independence.
	NoSteal bool
	// Obs attaches coordinator-side observability. With a registry present,
	// workers are asked to collect metrics too and their end-of-shard
	// snapshots are absorbed into it, so the coordinator's registry reports
	// batch-wide totals (merge order cannot matter — see obs.Snapshot.Merge).
	// Telemetry never crosses into job execution: results are byte-identical
	// with Obs set or nil.
	Obs *obs.Obs
}

// RunBatch runs every job against the network across procs worker
// subprocesses of workersPerProc pool threads each, with the Sat-verdict
// exchange on. Results are in job order and byte-identical (as summaries)
// to sched.RunBatch. procs <= 0 runs in-process.
func RunBatch(net *core.Network, jobs []Job, procs, workersPerProc int) []JobResult {
	return RunBatchConfig(net, jobs, Config{Procs: procs, WorkersPerProc: workersPerProc, ShareSat: true})
}

// RunBatchConfig is RunBatch with explicit configuration: it stands up an
// ephemeral Pool for the one batch and dismisses it. Callers with more than
// one batch (the churn service, benchmarks) should hold a Pool instead — the
// fleet then outlives batches and repeated setup shipping collapses to
// reuse/delta.
//
// In distributed mode, per-job Options.Stats collectors and Options.SatMemo
// caches cannot cross the process boundary and are ignored; per-job solver
// statistics are in each Summary.Stats.Solver, deterministic either way.
func RunBatchConfig(net *core.Network, jobs []Job, cfg Config) []JobResult {
	out := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	if cfg.Procs <= 0 && len(cfg.Workers) == 0 {
		runLocal(net, jobs, cfg.WorkersPerProc, cfg.Obs, out)
		return out
	}
	if cfg.Procs > len(jobs) && len(cfg.Workers) == 0 {
		// Never fork more processes than jobs for a one-shot batch (resident
		// TCP workers cost nothing extra, so the fleet is used as given).
		cfg.Procs = len(jobs)
	}
	p, err := NewPool(cfg)
	if err != nil {
		for i := range out {
			out[i] = JobResult{Name: jobs[i].Name, Err: err}
		}
		return out
	}
	defer p.Close()
	return p.RunBatch(net, jobs)
}

// runLocal is the in-process reference path: sched.RunBatch, summarized.
func runLocal(net *core.Network, jobs []Job, workers int, o *obs.Obs, out []JobResult) {
	for i, jr := range sched.RunBatchObs(net, jobs, workers, o) {
		out[i] = fromSched(jr)
	}
}

func fromSched(jr sched.JobResult) JobResult {
	r := JobResult{Name: jr.Name, Err: jr.Err}
	if jr.Result != nil {
		r.Summary = Summarize(jr.Result)
	}
	return r
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

// satSeen tracks which verdict keys the coordinator has already relayed, so
// broadcasts carry only news (verdicts for a key are deterministic, so only
// membership matters).
type satSeen map[solver.SatKey]struct{}

// filterNew returns the records not yet seen, recording them.
func (s satSeen) filterNew(recs []solver.SatRecord) []solver.SatRecord {
	out := recs[:0]
	for _, r := range recs {
		if _, dup := s[r.Key]; dup {
			continue
		}
		s[r.Key] = struct{}{}
		out = append(out, r)
	}
	return out
}
