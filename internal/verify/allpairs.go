package verify

import (
	"fmt"

	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/sefl"
)

// AllPairsReport answers "which sources reach which targets?" for a set of
// injection ports and target elements — the workload shape of batch
// verification and repair-and-verify tools, which re-run many reachability
// queries per candidate configuration change.
type AllPairsReport struct {
	Sources []core.PortRef
	Targets []string
	// Reachable[s][t] reports whether any delivered path from Sources[s]
	// ends at Targets[t].
	Reachable [][]bool
	// PathCount[s][t] is the number of such paths.
	PathCount [][]int
	// Results holds the per-source run results, aligned with Sources, for
	// follow-up queries (FieldDomain, FieldEndToEnd, ...). An entry is
	// nil when the source ran on a fleet: live paths (solver contexts,
	// packet memory) stay in the worker processes.
	Results []*core.Result
	// Summaries holds what crossed the wire for a source that ran on a fleet
	// (statuses, histories, solver statistics, constraint fingerprints); nil
	// for a source that ran in-process. dist.Summarize of the live result is
	// byte-identical to it for the same job — the property internal/dist
	// pins.
	Summaries []*dist.Summary
}

// Splice installs one source's finished run: its result (or summary) and a
// freshly allocated matrix row. On a CloneShallow copy this replaces the row
// without disturbing readers of the original.
func (r *AllPairsReport) Splice(s int, jr *dist.JobResult) {
	r.splice(s, jr, pairMetrics{})
}

func (r *AllPairsReport) splice(s int, jr *dist.JobResult, pm pairMetrics) {
	r.Results[s], r.Summaries[s] = jr.Result, jr.Summary
	row := make([]bool, len(r.Targets))
	cnt := make([]int, len(r.Targets))
	for t, target := range r.Targets {
		pt := pm.pairNs.Start()
		n := jr.DeliveredAt(target, -1)
		pt.Stop()
		row[t], cnt[t] = n > 0, n
		pm.count(n > 0)
	}
	r.Reachable[s], r.PathCount[s] = row, cnt
}

// AllPairsReachability injects the packet at every source and reports, for
// each (source, target) pair, whether the target is reachable. One symbolic
// run per source answers all targets for that source; the runs are one batch
// through the given runner — in-process at any width or a TCP fleet. The
// report is deterministic: results are merged in source order, each run is
// identical to a standalone core.Run, and the matrix is byte-identical across
// runners (per-path last-hop positions are part of the summaries the
// property tests in internal/dist pin down).
func AllPairsReachability(net *core.Network, sources []core.PortRef, packet sefl.Instr, targets []string, opts core.Options, runner dist.Runner) (*AllPairsReport, error) {
	o := opts.Obs
	defer o.Span("solve", "allpairs", -1)()
	pm := newPairMetrics(o)
	jobs := make([]dist.Job, len(sources))
	for i, src := range sources {
		jobs[i] = dist.Job{Name: net.PortName(src), Inject: src, Packet: packet, Opts: opts}
	}
	results := runner.RunBatch(net, jobs)
	rep := &AllPairsReport{
		Sources:   sources,
		Targets:   targets,
		Reachable: make([][]bool, len(sources)),
		PathCount: make([][]int, len(sources)),
		Results:   make([]*core.Result, len(sources)),
		Summaries: make([]*dist.Summary, len(sources)),
	}
	for i := range results {
		jr := &results[i]
		if jr.Err != nil {
			return nil, fmt.Errorf("verify: all-pairs source %s: %w", jr.Name, jr.Err)
		}
		rep.splice(i, jr, pm)
	}
	return rep, nil
}
