package symnet

import (
	"fmt"
	"io"

	"symnet/internal/churn"
	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/models"
	"symnet/internal/sched"
	"symnet/internal/sefl"
	"symnet/internal/tables"
	"symnet/internal/verify"
)

// Forwarding-table types for ServeConfig. See internal/tables.
type (
	// FIB is a router's forwarding table (longest-prefix-match routes).
	FIB = tables.FIB
	// Route is one FIB entry: Prefix/Len forwarded out Port.
	Route = tables.Route
	// MACTable is a switch's MAC learning table.
	MACTable = tables.MACTable
	// MACEntry is one MAC table entry: MAC forwarded out Port.
	MACEntry = tables.MACEntry
)

// Verification report types. See internal/verify.
type (
	// AllPairsReport is the sources x targets reachability matrix.
	AllPairsReport = verify.AllPairsReport
	// CellDelta is one report cell that changed between two versions.
	CellDelta = verify.CellDelta
)

// Churn serving types. See internal/churn for full documentation.
type (
	// Delta is one forwarding-rule update (FIB route or MAC entry
	// insert/delete/modify). It doubles as the symnetd wire format.
	Delta = churn.Delta
	// DeltaStatus is the per-delta outcome of an Apply.
	DeltaStatus = churn.DeltaStatus
	// ApplyReport reports one Apply call's absorption: the (possibly
	// coalesced) batch it rode in plus per-delta statuses.
	ApplyReport = churn.ApplyReport
	// BatchReport describes one absorbed batch: reconcile tier, dirty-set
	// size, cells re-verified, reachability transitions, elapsed time.
	BatchReport = churn.BatchResult
	// PublishedReport is an immutable versioned report snapshot.
	PublishedReport = churn.PublishedReport
	// VersionEvent is one published version plus its cell transitions.
	VersionEvent = churn.VersionEvent
	// Transition is one reachability-cell flip between versions.
	Transition = churn.Transition
	// Subscription is a live feed of VersionEvents (see Serving.Watch).
	Subscription = churn.Subscription
	// Serving is a live churn-serving handle, the one Serve returns: Apply,
	// Current, Watch, TransitionsSince, Export, Restore and Close.
	Serving = churn.Resident
	// ServingState is a serializable snapshot of resident tables + version.
	ServingState = churn.State
)

// Delta operations.
const (
	OpInsert = churn.OpInsert
	OpDelete = churn.OpDelete
	OpModify = churn.OpModify
)

// ReadServingState deserializes a snapshot written by ServingState.WriteTo.
func ReadServingState(r io.Reader) (*ServingState, error) { return churn.ReadState(r) }

// DecodeDeltas reads a JSON-lines delta stream (the symgen/symnetd format).
func DecodeDeltas(r io.Reader) ([]Delta, error) { return churn.DecodeDeltas(r) }

// EncodeDeltas writes deltas as JSON lines.
func EncodeDeltas(w io.Writer, ds []Delta) error { return churn.EncodeDeltas(w, ds) }

// Session is a compiled network plus the run configuration shared by every
// query against it: the options, the worker budget, and a cross-run
// satisfiability memo. Build one with Compile, then issue queries with Run,
// RunBatch and AllPairs, or start a churn-serving handle with Serve.
//
// Options.Workers sizes batch fan-out — RunBatch, AllPairs and Serve
// resolve it through one rule:
//
//	> 1  — that many jobs side by side
//	  0,1 — one job at a time
//	< 0  — one per core
//
// Run explores its one query on the calling goroutine at every setting.
// Results are byte-identical at every worker count.
type Session struct {
	net  *Network
	opts Options
}

// Compile validates the network, compiles every element's port programs (so
// first-query latency excludes compilation, and concurrent first queries
// cannot race to do it), and pins the session's run options. A nil
// Options.SatMemo is replaced with a fresh session-held memo, so repeated
// queries share the verdicts of the few Sat checks they reach (most guards
// are decided by domain intersection without one).
func Compile(net *Network, opts Options) (*Session, error) {
	if net == nil {
		return nil, fmt.Errorf("symnet: Compile on nil network")
	}
	if opts.SatMemo == nil {
		opts.SatMemo = NewSatMemo()
	}
	core.Warm(net)
	return &Session{net: net, opts: opts}, nil
}

// Network returns the session's network. Mutating it while a Serving handle
// is live is a data race; route changes through Serving.Apply instead.
func (s *Session) Network() *Network { return s.net }

// Options returns the session's pinned run options.
func (s *Session) Options() Options { return s.opts }

// workers resolves Options.Workers under the session rule into the width
// sched and dist take, where <= 0 means all cores: 1 for sequential (0 and
// 1), the count itself above that, 0 for all cores (< 0).
func (s *Session) workers() int {
	switch w := s.opts.Workers; {
	case w < 0:
		return 0
	case w <= 1:
		return 1
	default:
		return w
	}
}

// Run injects a symbolic packet built by init at an input port and explores
// every feasible path on the calling goroutine.
func (s *Session) Run(inject PortRef, init sefl.Instr) (*Result, error) {
	return core.Run(s.net, inject, init, s.opts)
}

// RunBatch runs independent queries against the network, fanning jobs
// across the session's worker pool (see the type comment for Workers). Jobs
// with a nil Opts.SatMemo share the session memo; results are identical with
// or without sharing.
func (s *Session) RunBatch(jobs []BatchJob) []BatchResult {
	shared := make([]BatchJob, len(jobs))
	for i, j := range jobs {
		if j.Opts.SatMemo == nil {
			j.Opts.SatMemo = s.opts.SatMemo
		}
		shared[i] = j
	}
	return sched.RunBatchObs(s.net, shared, s.workers(), s.opts.Obs)
}

// AllPairs computes the sources x targets reachability matrix under the
// session options, one in-process run per source across the session's worker
// pool (see the type comment for Workers).
func (s *Session) AllPairs(sources []PortRef, packet sefl.Instr, targets []string) (*AllPairsReport, error) {
	runner := dist.InProcess(s.workers(), s.opts.Obs)
	return verify.AllPairsReachability(s.net, sources, packet, targets, s.opts, runner)
}

// ServeConfig describes a resident churn-serving workload: the monitored
// all-pairs query plus the authoritative forwarding tables of the elements
// that will receive deltas. Serve models each listed element from its table
// — Egress style, the patchable tier — so the caller only builds the
// topology (AddElement + Link) and hands over the tables.
type ServeConfig struct {
	// Sources and Targets define the monitored reachability matrix.
	Sources []PortRef
	Targets []string
	// Packet builds the injected symbolic packet (e.g. sefl.NewTCPPacket()).
	Packet sefl.Instr
	// Routers and Switches map element names to their authoritative tables.
	Routers  map[string]FIB
	Switches map[string]MACTable
	// DistWorkers lists resident TCP worker addresses (host:port of
	// `symworker -listen` processes, possibly on other machines). When
	// non-empty, every verification pass (the initial all-pairs run and each
	// churn re-verification) shards across that fleet instead of the
	// in-process scheduler. The pool outlives batches: workers keep the
	// topology and each port's SEFL source installed, compiling the source
	// as they install it, and rule churn reaches them as deltas carrying the
	// changed ports' source. Published observables are byte-identical to
	// in-process serving.
	DistWorkers []string
}

// Serve models the configured elements from their tables, runs the initial
// all-pairs verification (published as version 1), and starts the absorber.
// It builds every listed element's code before it installs any, so a config
// naming an unknown element or a table its model refuses changes nothing.
// Verification passes fan across the session's worker pool (see the type
// comment for Workers) — in-process, or per fleet member when the config
// names a fleet. Reads on the handle are lock-free; all mutations funnel
// through Apply's single-writer absorber, which coalesces concurrent calls.
// Close the handle when done: it also dismisses the fleet. A session whose
// options set ASTInterp, the reference interpreter, cannot serve.
func (s *Session) Serve(cfg ServeConfig) (*Serving, error) {
	if s.opts.ASTInterp {
		return nil, fmt.Errorf("symnet: serve: Options.ASTInterp is a reference mode; serve compiled programs")
	}
	var elems []*Element
	var codes []models.EgressCode
	for name, fib := range cfg.Routers {
		e, ok := s.net.Element(name)
		if !ok {
			return nil, fmt.Errorf("symnet: serve: unknown router element %q", name)
		}
		c, err := models.RouterEgress(e, fib)
		if err != nil {
			return nil, fmt.Errorf("symnet: serve: model router %q: %w", name, err)
		}
		elems, codes = append(elems, e), append(codes, c)
	}
	for name, tbl := range cfg.Switches {
		e, ok := s.net.Element(name)
		if !ok {
			return nil, fmt.Errorf("symnet: serve: unknown switch element %q", name)
		}
		c, err := models.SwitchEgress(e, tbl)
		if err != nil {
			return nil, fmt.Errorf("symnet: serve: model switch %q: %w", name, err)
		}
		elems, codes = append(elems, e), append(codes, c)
	}
	for i, e := range elems {
		codes[i].Install(e)
	}
	core.Warm(s.net) // the re-modeled elements' programs
	runner, err := dist.NewRunner(dist.Config{
		Workers:        cfg.DistWorkers,
		WorkersPerProc: s.workers(),
		Obs:            s.opts.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("symnet: serve: %w", err)
	}
	svc := churn.NewService(churn.Config{
		Net:     s.net,
		Sources: cfg.Sources,
		Targets: cfg.Targets,
		Packet:  cfg.Packet,
		Opts:    s.opts,
		Runner:  runner,
	})
	for name, fib := range cfg.Routers {
		svc.RegisterRouter(name, fib)
	}
	for name, tbl := range cfg.Switches {
		svc.RegisterSwitch(name, tbl)
	}
	if err := svc.Init(); err != nil {
		runner.Close()
		return nil, fmt.Errorf("symnet: serve: initial verification: %w", err)
	}
	return churn.NewResident(svc), nil
}
