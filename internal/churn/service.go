package churn

import (
	"fmt"
	"sort"
	"sync/atomic"

	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/obs"
	"symnet/internal/sefl"
	"symnet/internal/solver"
	"symnet/internal/tables"
	"symnet/internal/verify"
)

// Config describes the resident verification workload: the network, the
// all-pairs query (sources, packet, targets), run options, and the runner
// that executes verification batches.
type Config struct {
	Net     *core.Network
	Sources []core.PortRef
	Targets []string
	Packet  sefl.Instr
	Opts    core.Options
	// Runner carries every verification pass — the initial all-pairs run and
	// each re-verification. Nil selects dist.InProcess at GOMAXPROCS width.
	// The service keeps a fleet's installed code current: each absorbed
	// batch and each restore Refreshes the entries it wrote (a new Fork, the
	// ports given new guards). Published observables (reachability, path
	// counts, transitions) are byte-identical across runners; a fleet's
	// report carries Summaries where an in-process one carries Results.
	// A Resident wrapping the service owns the runner and closes it on
	// Close; a caller driving the Service alone closes it itself.
	Runner dist.Runner
}

// Action classifies how a delta was absorbed, cheapest first.
type Action string

const (
	// actionNoop: the delta changed nothing (e.g. modify to the same port).
	actionNoop Action = "noop"
	// actionPatched: the element's port set held, and each port whose guard
	// changed got the new guard as its code, compiled on its next run.
	actionPatched Action = "patched"
	// actionRebuilt: the element's port set changed: it got a new Fork, and
	// each port whose guard changed its new guard.
	actionRebuilt Action = "rebuilt"
)

// Service is a resident incremental verifier: Init runs the full all-pairs
// query once; apply (or a coalescing stage/commit batch) absorbs rule
// deltas, giving each affected port its new guard and re-running only
// the sources whose explorations traversed the touched ports. Every
// absorption publishes a fresh copy-on-write report snapshot under a
// monotonically increasing version; each published version is byte-identical
// to a from-scratch verification of the rule set at that point.
//
// Mutations (apply, stage.commit, restoreState) are single-writer and not
// safe for concurrent use — Resident serializes them behind a bounded intake
// queue. The read side (current, watch, transitionsSince) is safe from any
// goroutine and never blocks on the writer.
type Service struct {
	cfg      Config
	reg      *obs.Registry
	routers  map[string]tables.FIB
	switches map[string]tables.MACTable
	report   *verify.AllPairsReport
	cur      atomic.Pointer[PublishedReport]
	hub      *hub

	// visited[p] is the set of source indices whose exploration recorded
	// output-port p in some path history — exactly the sources whose results
	// can depend on p's guard, since the set of paths attempting a guard is
	// decided by the upstream fork, not by the guard's content. visitedElem
	// is the coarser per-element set a new Fork dirties.
	visited     map[core.PortRef]map[int]bool
	visitedElem map[string]map[int]bool

	// unverified is the set of source indices whose rows may be stale: a
	// commit adds the sources its reconciled ports dirty, and only a
	// re-verification that succeeds clears it. A commit whose batch fails (a
	// fleet with no live member) has already updated the tables and guards,
	// so its sources stay here and ride the next commit's batch.
	unverified map[int]bool

	// pendingRefresh collects the code-table entries the current commit or
	// restore rewrote: the output ports given new guards and the in[*] entry
	// of an element given a new Fork. It flushes to the Runner (Refresh)
	// before the re-verification pass, keeping a fleet's installed code in
	// lockstep with the resident model.
	pendingRefresh []core.PortRef

	deltaNs         *obs.Histogram
	batchNs         *obs.Histogram
	batchSize       *obs.Histogram
	batchMax        *obs.Gauge
	versionGauge    *obs.Gauge
	cellsDirty      *obs.Counter
	cellsReverified *obs.Counter
	deltasApplied   *obs.Counter
	batchesApplied  *obs.Counter
	// patchedPorts counts ports given a new guard; recompiledPorts those of
	// them whose compiled program was resident and dropped with the old
	// code (their next run compiles the new guard).
	patchedPorts    *obs.Counter
	recompiledPorts *obs.Counter
	rebuiltElems    *obs.Counter
}

// NewService prepares a service; call RegisterRouter/RegisterSwitch for
// every element that will receive deltas, then Init.
func NewService(cfg Config) *Service {
	// The churn.* instruments and the shared SatCache's counters land in
	// the run options' registry, beside the engine's, or in a private one.
	var reg *obs.Registry
	if cfg.Opts.Obs != nil {
		reg = cfg.Opts.Obs.Reg
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	memo := solver.NewSatCache()
	memo.RegisterMetrics(reg)
	cfg.Opts.SatMemo = memo
	if cfg.Runner == nil {
		cfg.Runner = dist.InProcess(0, cfg.Opts.Obs)
	}
	s := &Service{
		cfg:             cfg,
		reg:             reg,
		routers:         make(map[string]tables.FIB),
		switches:        make(map[string]tables.MACTable),
		unverified:      make(map[int]bool),
		visited:         make(map[core.PortRef]map[int]bool),
		visitedElem:     make(map[string]map[int]bool),
		hub:             newHub(reg),
		deltaNs:         reg.Histogram("churn.delta_ns"),
		batchNs:         reg.Histogram("churn.batch_ns"),
		batchSize:       reg.Histogram("churn.batch_size"),
		batchMax:        reg.Gauge("churn.batch.max_size"),
		versionGauge:    reg.Gauge("churn.version"),
		cellsDirty:      reg.Counter("churn.cells.dirty"),
		cellsReverified: reg.Counter("churn.cells.reverified"),
		deltasApplied:   reg.Counter("churn.deltas.applied"),
		batchesApplied:  reg.Counter("churn.batches.applied"),
		patchedPorts:    reg.Counter("churn.ports.patched"),
		recompiledPorts: reg.Counter("churn.ports.recompiled"),
		rebuiltElems:    reg.Counter("churn.elems.rebuilt"),
	}
	return s
}

// RegisterRouter hands the service the authoritative FIB of a router element
// (Egress style). The service owns its copy; deltas mutate it.
func (s *Service) RegisterRouter(elem string, fib tables.FIB) {
	s.routers[elem] = append(tables.FIB(nil), fib...)
}

// RegisterSwitch hands the service the authoritative MAC table of a switch
// element (Egress style, MAC-only matching).
func (s *Service) RegisterSwitch(elem string, tbl tables.MACTable) {
	s.switches[elem] = append(tables.MACTable(nil), tbl...)
}

// totalCells returns the report's (source, target) pair count.
func (s *Service) totalCells() int { return len(s.cfg.Sources) * len(s.cfg.Targets) }

// Init runs the full all-pairs verification, builds the dependency index, and
// publishes report version 1. It refuses options that set ASTInterp: the
// reference interpreter fingerprints a table's Or-tree, so a delta that
// keeps a port's span table would still move its visitors' results.
func (s *Service) Init() error {
	if s.cfg.Opts.ASTInterp {
		return fmt.Errorf("churn: Options.ASTInterp is a reference mode; serve compiled programs")
	}
	rep, err := s.runFull()
	if err != nil {
		return err
	}
	s.report = rep
	s.reg.Gauge("churn.cells.total").Set(int64(s.totalCells()))
	s.publish(rep, 0)
	return nil
}

// runFull computes the full all-pairs report through the runner and rebuilds
// the dependency index from it. Every source is fresh afterwards.
func (s *Service) runFull() (*verify.AllPairsReport, error) {
	rep, err := verify.AllPairsReachability(s.cfg.Net, s.cfg.Sources, s.cfg.Packet, s.cfg.Targets, s.cfg.Opts, s.cfg.Runner)
	if err != nil {
		return nil, err
	}
	clear(s.unverified)
	s.visited = make(map[core.PortRef]map[int]bool)
	s.visitedElem = make(map[string]map[int]bool)
	for i := range rep.Sources {
		s.indexSource(i, &dist.JobResult{Result: rep.Results[i], Summary: rep.Summaries[i]})
	}
	return rep, nil
}

// apply absorbs one rule delta: update the authoritative table, install
// the changed guards (and a changed Fork), re-verify exactly the sources
// whose explorations traversed the touched ports, and publish the next
// report version. It is a batch of one — see newStage/applyBatch for
// coalescing several deltas into one re-verification pass.
func (s *Service) apply(d Delta) (*BatchResult, error) {
	st := s.newStage()
	if err := st.Add(d); err != nil {
		return nil, err
	}
	return st.commit()
}

// flushRunner ships the commit's rewritten entries to the Runner, so a
// fleet's next batch ships their source instead of the network. It runs even
// when the dirty set is empty: a guard no current path attempts is still
// stale on the workers and must not survive into a later batch.
func (s *Service) flushRunner() {
	s.cfg.Runner.Refresh(s.pendingRefresh...)
	s.pendingRefresh = nil
}

// reverify re-runs the unverified sources, splices their rows into a
// copy-on-write clone of the resident report, and installs the clone as the
// writer's working report (publication happens in commit). Unchanged rows
// stay shared with the previously published snapshot, which concurrent
// readers keep traversing untouched. On error nothing is installed and the
// set is kept for the next commit.
func (s *Service) reverify(res *BatchResult) error {
	s.flushRunner()
	res.DirtySources = len(s.unverified)
	s.cellsDirty.Add(int64(len(s.unverified) * len(s.cfg.Targets)))
	if len(s.unverified) == 0 {
		return nil
	}
	idx := make([]int, 0, len(s.unverified))
	for i := range s.unverified {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	jobs := make([]dist.Job, len(idx))
	for k, i := range idx {
		src := s.cfg.Sources[i]
		jobs[k] = dist.Job{Name: s.cfg.Net.PortName(src), Inject: src, Packet: s.cfg.Packet, Opts: s.cfg.Opts}
	}
	results := s.cfg.Runner.RunBatch(s.cfg.Net, jobs)
	for k := range results {
		if jr := &results[k]; jr.Err != nil {
			return fmt.Errorf("churn: re-verify source %s: %w", jr.Name, jr.Err)
		}
	}
	next := s.report.CloneShallow()
	for k, i := range idx {
		s.spliceSource(next, i, &results[k])
	}
	s.report = next
	clear(s.unverified)
	res.CellsReverified = len(idx) * len(s.cfg.Targets)
	s.cellsReverified.Add(int64(res.CellsReverified))
	return nil
}

// spliceSource replaces one source's row in the given report clone and
// refreshes the dependency index for it.
func (s *Service) spliceSource(rep *verify.AllPairsReport, i int, jr *dist.JobResult) {
	rep.Splice(i, jr)
	s.dropFromIndex(i)
	s.indexSource(i, jr)
}

// dropFromIndex removes source i from every dependency set ahead of its
// re-index.
func (s *Service) dropFromIndex(i int) {
	for _, set := range s.visited {
		delete(set, i)
	}
	for _, set := range s.visitedElem {
		delete(set, i)
	}
}

// indexSource records which output ports and elements source i's paths
// traversed, reading each distinct port once. Every path counts, whatever
// its status: the engine pushes the output-port visit before executing the
// guard, so failed paths carry the port whose guard killed them — exactly
// the dependency that matters.
func (s *Service) indexSource(i int, jr *dist.JobResult) {
	for pr := range jr.VisitedPorts() {
		if pr.Out {
			addSource(s.visited, pr, i)
		}
		addSource(s.visitedElem, pr.Elem, i)
	}
}

// addSource adds source i to the dependency set under key k.
func addSource[K comparable](index map[K]map[int]bool, k K, i int) {
	set := index[k]
	if set == nil {
		set = make(map[int]bool)
		index[k] = set
	}
	set[i] = true
}

// worse returns the more expensive of two absorption tiers.
func worse(a, b Action) Action {
	if tier(b) > tier(a) {
		return b
	}
	return a
}

func tier(a Action) int {
	switch a {
	case actionPatched:
		return 1
	case actionRebuilt:
		return 2
	}
	return 0 // actionNoop and the unset zero value
}
