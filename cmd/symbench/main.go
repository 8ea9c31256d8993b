// Command symbench regenerates the paper's tables and figures and prints
// rows shaped like the originals. Select experiments with -run. With -json
// the same measurements are emitted as a machine-readable JSON array
// (experiment, name, paths, hops, ns/op, solver stats) for recording perf
// trajectories.
//
//	symbench -run table1      # Klee paths/runtimes on options code
//	symbench -run fig8        # switch model scaling (Basic/Ingress/Egress)
//	symbench -run table2      # core-router analysis
//	symbench -run table3      # HSA vs SymNet on the Stanford-like backbone
//	symbench -run table4      # options-code property coverage
//	symbench -run table5      # capability matrix
//	symbench -run splittcp    # §8.4 middlebox scenarios
//	symbench -run dept        # §8.5 department network
//	symbench -run satcache    # shared Sat-cache hit rate on a cross-field policy chain
//	symbench -run allpairs    # batch all-pairs reachability, sequential vs -workers
//	symbench -run allpairs-dist  # all-pairs through dist.NewRunner (in-process, or -dist-workers)
//	symbench -run forkheavy   # fork-heavy state replication (engine microbench)
//	symbench -run summaries   # per-element summaries vs IR re-execution (all-pairs on/off)
//	symbench -run churn       # incremental re-verification per rule delta vs full recompute
//	symbench -run all
//
// With -dist-workers host:port,... the allpairs-dist experiment shards
// across that TCP fleet (symworker -listen); without it the same code path
// answers in-process. -stable strips timing from JSON output so two runs
// that computed the same results emit identical bytes — CI diffs a TCP fleet
// run against an in-process run to pin distributed determinism.
package main

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"symnet/internal/churn"
	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/experiments"
	"symnet/internal/models"
	"symnet/internal/obs"
	"symnet/internal/prog"
	"symnet/internal/sched"
	"symnet/internal/sefl"
	"symnet/internal/solver"
	"symnet/internal/verify"
)

// jsonRow is one machine-readable measurement. Paths/Hops/NsPerOp/Solver
// are filled when the experiment exposes them; experiment-specific columns
// ride in Extra.
type jsonRow struct {
	Experiment string         `json:"experiment"`
	Name       string         `json:"name,omitempty"`
	Paths      int            `json:"paths,omitempty"`
	Hops       int            `json:"hops,omitempty"`
	NsPerOp    int64          `json:"ns_per_op,omitempty"`
	Solver     *solver.Stats  `json:"solver,omitempty"`
	Extra      map[string]any `json:"extra,omitempty"`
}

// reporter collects JSON rows or passes human-readable output through,
// depending on -json. In stable mode timing columns are stripped so runs
// with identical results emit identical bytes.
type reporter struct {
	jsonMode bool
	stable   bool
	rows     []jsonRow
	// metrics is the -metrics registry snapshot taken at flush time. It turns
	// the JSON output into the enveloped {"schema","rows","metrics"} shape —
	// except under -stable, which strips all metrics (wall-clock histograms
	// can never be byte-stable) and keeps the legacy row array.
	metrics *obs.Snapshot
}

// printf emits human-readable output (suppressed in JSON mode).
func (r *reporter) printf(format string, args ...any) {
	if !r.jsonMode {
		fmt.Printf(format, args...)
	}
}

func (r *reporter) add(row jsonRow) {
	if !r.jsonMode {
		return
	}
	if r.stable {
		row.NsPerOp = 0
		for k := range row.Extra {
			// Timing columns and run-configuration echoes (worker count)
			// vary across equal-result runs; stable output carries results
			// only, so a workers-1 and a workers-4 run diff byte-identical.
			if strings.HasSuffix(k, "_ns") || k == "speedup" || k == "workers" {
				delete(row.Extra, k)
			}
		}
	}
	r.rows = append(r.rows, row)
}

func (r *reporter) flush() error {
	if !r.jsonMode {
		if r.metrics != nil {
			// Human-readable mode still gets the metrics, appended as one
			// indented JSON block.
			fmt.Printf("== Metrics (schema %d) ==\n", r.metrics.Schema)
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(r.metrics)
		}
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if r.metrics != nil && !r.stable {
		return enc.Encode(map[string]any{
			"schema":  r.metrics.Schema,
			"rows":    r.rows,
			"metrics": r.metrics,
		})
	}
	return enc.Encode(r.rows)
}

// validExperiments is the authoritative -run vocabulary; parseRuns rejects
// anything outside it so a typo fails loudly instead of silently running
// nothing.
var validExperiments = []string{
	"table1", "fig8", "table2", "table3", "table4", "table5",
	"splittcp", "dept", "satcache", "allpairs", "allpairs-dist", "forkheavy", "itables",
	"summaries", "churn", "pool", "pool-scale", "all",
}

// parseRuns parses the comma-separated -run list, erroring on unknown
// experiment names with the valid vocabulary in the message.
func parseRuns(spec string) (map[string]bool, error) {
	valid := make(map[string]bool, len(validExperiments))
	for _, name := range validExperiments {
		valid[name] = true
	}
	sel := make(map[string]bool)
	for _, name := range strings.Split(strings.ToLower(spec), ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !valid[name] {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(validExperiments, ", "))
		}
		sel[name] = true
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("empty -run list (valid: %s)", strings.Join(validExperiments, ", "))
	}
	return sel, nil
}

func main() {
	dist.MaybeWorker() // started as a fleet member (spawnListenWorkers): never returns

	run := flag.String("run", "all", "comma-separated experiments to run (table1|fig8|table2|table3|table4|table5|splittcp|dept|satcache|allpairs|allpairs-dist|forkheavy|itables|summaries|churn|pool|pool-scale|all; pool and pool-scale fork worker processes and only run when named explicitly)")
	quick := flag.Bool("quick", false, "smaller workloads for a fast pass")
	heavy := flag.Bool("heavy", false, "larger workloads for allpairs/allpairs-dist (amortizes distributed setup; used by the multicore CI gate)")
	workers := flag.Int("workers", 0, "worker pool size for parallel experiments (0 = all cores)")
	distWorkers := flag.String("dist-workers", "", "comma-separated host:port list of resident TCP workers (symworker -listen) for allpairs-dist and pool-scale")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of paper-shaped tables")
	stable := flag.Bool("stable", false, "strip timing from JSON output (byte-identical across runs with equal results)")
	metrics := flag.Bool("metrics", false, "attach a metrics registry and emit its schema-versioned snapshot (JSON: {schema,rows,metrics} envelope; suppressed by -stable)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars (expvar incl. live metrics) and /debug/pprof on this address during the run")
	traceOut := flag.String("trace-out", "", "write phase spans as JSONL to this file (flame-graph/trace-viewer input)")
	flag.Parse()
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	rep := &reporter{jsonMode: *jsonOut, stable: *stable}

	// Observability is strictly observational — the differential CI jobs diff
	// -stable output with these flags on against runs with them off.
	var reg *obs.Registry
	if *metrics || *debugAddr != "" {
		reg = obs.NewRegistry()
		prog.RegisterMetrics(reg)
	}
	var trc *obs.Tracer
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		defer tf.Close()
		trc = obs.NewTracer(tf)
	}
	var o *obs.Obs
	if reg != nil || trc != nil {
		o = obs.New(reg, trc)
	}
	if *debugAddr != "" {
		bound, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "symbench: debug server on http://"+bound+"/debug/vars")
	}

	sel, err := parseRuns(*run)
	if err != nil {
		fail(err)
	}
	want := func(name string) bool { return sel["all"] || sel[name] }
	if want("table1") {
		table1(rep, *quick)
	}
	if want("fig8") {
		fig8(rep, *quick)
	}
	if want("table2") {
		table2(rep, *quick)
	}
	if want("table3") {
		table3(rep, *quick)
	}
	if want("table4") {
		table4(rep)
	}
	if want("table5") {
		table5(rep)
	}
	if want("splittcp") {
		splittcp(rep)
	}
	if want("dept") {
		dept(rep, *quick)
	}
	if want("satcache") {
		satcache(rep, *quick, *heavy, o)
	}
	if want("allpairs") {
		allpairs(rep, *quick, *heavy, *workers, o)
	}
	if want("allpairs-dist") {
		allpairsDist(rep, *quick, *heavy, *workers, splitAddrs(*distWorkers), o)
	}
	if want("forkheavy") {
		forkheavy(rep, *quick)
	}
	if want("itables") {
		itables(rep, *quick, o)
	}
	if want("summaries") {
		summaries(rep, *quick, *heavy, *workers, o)
	}
	if want("churn") {
		churnBench(rep, *quick, *heavy, *workers, o)
	}
	// The fleet benchmarks fork worker processes, so they only run when named
	// explicitly — "all" stays cheap and deterministic.
	if sel["pool"] {
		poolBench(rep, *quick)
	}
	if sel["pool-scale"] {
		poolScale(rep, *quick, splitAddrs(*distWorkers))
	}
	if *metrics {
		rep.metrics = reg.Snapshot()
	}
	if err := rep.flush(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "symbench:", err)
	os.Exit(1)
}

func table1(rep *reporter, quick bool) {
	maxLen := 7
	if quick {
		maxLen = 5
	}
	rep.printf("== Table 1: naive symbolic execution of TCP-options parsing ==\n")
	rep.printf("%-8s %-12s %-12s %s\n", "Length", "Paths", "Paper", "Runtime")
	for _, r := range experiments.Table1(maxLen) {
		rep.printf("%-8d %-12d %-12d %v\n", r.Length, r.Paths, r.PaperPaths, r.Time)
		rep.add(jsonRow{
			Experiment: "table1",
			Name:       fmt.Sprintf("len%d", r.Length),
			Paths:      r.Paths,
			NsPerOp:    r.Time.Nanoseconds(),
			Extra:      map[string]any{"paper_paths": r.PaperPaths},
		})
	}
	rep.printf("\n")
}

func fig8(rep *reporter, quick bool) {
	rep.printf("== Fig. 8: switch model scaling (symbolic EtherDst) ==\n")
	rep.printf("%-9s %-10s %-8s %-12s %s\n", "Style", "Entries", "Paths", "SolverOps", "Time")
	if quick {
		experiments.Fig8Limits[models.Egress] = 100000
	}
	rows, err := experiments.Fig8(20, 42)
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		rep.printf("%-9v %-10d %-8d %-12d %v\n", r.Style, r.Entries, r.Paths, r.SolverOps, r.Time)
		rep.add(jsonRow{
			Experiment: "fig8",
			Name:       fmt.Sprintf("%v-%d", r.Style, r.Entries),
			Paths:      r.Paths,
			NsPerOp:    r.Time.Nanoseconds(),
			Extra:      map[string]any{"entries": r.Entries, "solver_ops": r.SolverOps},
		})
	}
	rep.printf("\n")
}

func table2(rep *reporter, quick bool) {
	rep.printf("== Table 2: core-router analysis ==\n")
	rep.printf("%-9s %-10s %-8s %-12s %-12s %s\n", "Style", "Prefixes", "Paths", "GenTime", "Runtime", "Exclusions")
	ports := 16
	if quick {
		ports = 8
	}
	rows, err := experiments.Table2(ports, 7)
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		if r.DNF {
			rep.printf("%-9v %-10d DNF\n", r.Style, r.Prefixes)
			rep.add(jsonRow{
				Experiment: "table2",
				Name:       fmt.Sprintf("%v-%d", r.Style, r.Prefixes),
				Extra:      map[string]any{"prefixes": r.Prefixes, "dnf": true},
			})
			continue
		}
		rep.printf("%-9v %-10d %-8d %-12v %-12v %d\n", r.Style, r.Prefixes, r.Paths, r.GenTime, r.Time, r.Exclusions)
		rep.add(jsonRow{
			Experiment: "table2",
			Name:       fmt.Sprintf("%v-%d", r.Style, r.Prefixes),
			Paths:      r.Paths,
			NsPerOp:    r.Time.Nanoseconds(),
			Extra: map[string]any{
				"prefixes": r.Prefixes, "gen_ns": r.GenTime.Nanoseconds(), "exclusions": r.Exclusions,
			},
		})
	}
	rep.printf("\n")
}

func table3(rep *reporter, quick bool) {
	rep.printf("== Table 3: HSA vs SymNet (Stanford-like backbone) ==\n")
	zones, perZone := 14, 1000
	if quick {
		zones, perZone = 8, 100
	}
	rows, err := experiments.Table3(zones, perZone)
	if err != nil {
		fail(err)
	}
	rep.printf("%-8s %-14s %-14s %s\n", "Tool", "Generation", "Runtime", "Endpoints")
	for _, r := range rows {
		rep.printf("%-8s %-14v %-14v %d\n", r.Tool, r.GenTime, r.RunTime, r.Reached)
		rep.add(jsonRow{
			Experiment: "table3",
			Name:       r.Tool,
			NsPerOp:    r.RunTime.Nanoseconds(),
			Extra:      map[string]any{"gen_ns": r.GenTime.Nanoseconds(), "endpoints": r.Reached},
		})
	}
	rep.printf("\n")
}

func table4(rep *reporter) {
	rep.printf("== Table 4: Klee vs SymNet on TCP-options firewall code ==\n")
	rows, err := experiments.Table4()
	if err != nil {
		fail(err)
	}
	rep.printf("%-34s %-32s %s\n", "Property", "Klee (naive executor)", "SymNet (SEFL model)")
	for _, r := range rows {
		rep.printf("%-34s %-32s %s\n", r.Property, r.Klee, r.SymNet)
		rep.add(jsonRow{
			Experiment: "table4",
			Name:       r.Property,
			Extra:      map[string]any{"klee": r.Klee, "symnet": r.SymNet},
		})
	}
	rep.printf("\n")
}

func table5(rep *reporter) {
	rep.printf("== Table 5: verification-tool capabilities (SymNet column verified by runnable scenarios) ==\n")
	rep.printf("%-26s %-6s %-6s %s\n", "Capability", "HSA", "NOD", "SymNet")
	for _, r := range experiments.Table5() {
		rep.printf("%-26s %-6s %-6s %s\n", r.Capability, r.HSA, r.NOD, r.SymNet)
		rep.add(jsonRow{
			Experiment: "table5",
			Name:       r.Capability,
			Extra:      map[string]any{"hsa": r.HSA, "nod": r.NOD, "symnet": r.SymNet},
		})
	}
	rep.printf("\n")
}

func splittcp(rep *reporter) {
	rep.printf("== §8.4: Split-TCP middlebox scenarios (Fig. 10) ==\n")
	fs, err := experiments.SplitTCP()
	if err != nil {
		fail(err)
	}
	for _, f := range fs {
		status := "OK"
		if !f.OK {
			status = "FAILED"
		}
		rep.printf("%-28s %-56s %s\n", f.Scenario, f.Detail, status)
		rep.add(jsonRow{
			Experiment: "splittcp",
			Name:       f.Scenario,
			Extra:      map[string]any{"ok": f.OK, "detail": f.Detail},
		})
	}
	rep.printf("\n")
}

func dept(rep *reporter, quick bool) {
	rep.printf("== §8.5: CS department network (Fig. 11) ==\n")
	cfg := datasets.DefaultDepartment()
	if quick {
		cfg = datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 5}
	}
	for _, fixed := range []bool{false, true} {
		cfg.Fixed = fixed
		label := "before fix"
		if fixed {
			label = "after fix"
		}
		t0 := time.Now()
		fs, res, err := experiments.Department(cfg)
		elapsed := time.Since(t0)
		if err != nil {
			fail(err)
		}
		rep.printf("-- %s (MACs=%d routes=%d paths=%d %v) --\n", label, cfg.HostsPerSwitch*cfg.NumAccessSwitches, cfg.Routes, res.Stats.Paths, elapsed.Round(time.Millisecond))
		solverStats := res.Stats.Solver
		rep.add(jsonRow{
			Experiment: "dept",
			Name:       label,
			Paths:      res.Stats.Paths,
			Hops:       res.Stats.Hops,
			// Wall-clock for the whole scenario run, so dept rows carry a
			// timing column the benchdiff threshold gate can fire on.
			NsPerOp: elapsed.Nanoseconds(),
			Solver:  &solverStats,
			Extra: map[string]any{
				"macs": cfg.HostsPerSwitch * cfg.NumAccessSwitches, "routes": cfg.Routes,
			},
		})
		for _, f := range fs {
			status := "OK"
			if !f.OK {
				status = "FAILED"
			}
			rep.printf("%-46s %-52s %s\n", f.Name, f.Detail, status)
			rep.add(jsonRow{
				Experiment: "dept",
				Name:       label + "/" + f.Name,
				Extra:      map[string]any{"ok": f.OK, "detail": f.Detail},
			})
		}
	}
	rep.printf("\n")
}

// satcache measures the shared satisfiability memo cache on the SatHeavy
// cross-field policy chain: a batch of identical queries (the
// repair-and-verify shape — the same property re-checked per candidate
// change) replays identical assertion chains, so all but the first query
// answer every Sat check from cache. The batch runs sequentially so the
// hit/miss columns are deterministic (exactly rules misses, (queries-1) *
// rules hits) and survive -stable; this is also the experiment whose cache
// counters the CI observability smoke asserts over the live expvar endpoint.
func satcache(rep *reporter, quick, heavy bool, o *obs.Obs) {
	rules, queries := 24, 16
	if quick {
		rules, queries = 8, 6
	}
	if heavy {
		rules, queries = 32, 64
	}
	rep.printf("== Shared Sat-cache: identical queries over a cross-field policy chain ==\n")
	rep.printf("%-14s %-10s %-10s %-10s %-10s %s\n", "Rules", "Queries", "Hits", "Misses", "HitRate", "Time")

	net, inject := datasets.SatHeavy(rules)
	memo := solver.NewSatCache()
	var stats solver.Stats
	if o != nil {
		memo.RegisterMetrics(o.Reg)
	}
	jobs := make([]sched.Job, queries)
	for i := range jobs {
		jobs[i] = sched.Job{
			Name: fmt.Sprintf("q%03d", i), Inject: inject, Packet: sefl.NewIPPacket(),
			Opts: core.Options{Stats: &stats, SatMemo: memo},
		}
	}
	t0 := time.Now()
	for _, jr := range sched.RunBatchObs(net, jobs, 1, o) {
		if jr.Err != nil {
			fail(jr.Err)
		}
	}
	elapsed := time.Since(t0)
	stats.AddCache(memo)
	hitRate := 0.0
	if total := memo.Hits() + memo.Misses(); total > 0 {
		hitRate = float64(memo.Hits()) / float64(total)
	}
	rep.printf("%-14d %-10d %-10d %-10d %-10.3f %v\n",
		rules, queries, memo.Hits(), memo.Misses(), hitRate, elapsed.Round(time.Millisecond))
	rep.add(jsonRow{
		Experiment: "satcache",
		Name:       "policy-chain",
		NsPerOp:    elapsed.Nanoseconds(),
		Solver:     &stats,
		Extra: map[string]any{
			"rules": rules, "queries": queries,
			"cache_hits": memo.Hits(), "cache_misses": memo.Misses(),
		},
	})
	rep.printf("\n")
}

// allpairs measures batch all-pairs reachability — the workload shape of
// repair-and-verify tools — sequentially and on the worker pool. Each pass
// uses its own satisfiability memo cache (so the speedup column measures
// parallelism, not cache warmth); the reported memo_hits/memo_misses are
// the sequential pass's intra-batch hit rate.
// allpairsBackboneSize picks the Stanford-like backbone scale: -quick for
// smoke passes, -heavy (30 zones × 1000 routes — double the Table 3 zone
// count) so per-job compute amortizes distributed spawn+encode overhead on
// the multicore CI gate.
func allpairsBackboneSize(quick, heavy bool) (zones, perZone int) {
	switch {
	case heavy:
		return 30, 1000
	case quick:
		return 8, 100
	}
	return 14, 300
}

func allpairs(rep *reporter, quick, heavy bool, workers int, o *obs.Obs) {
	rep.printf("== All-pairs reachability: sequential vs parallel batch ==\n")
	rep.printf("%-22s %-8s %-8s %-12s %-12s %s\n", "Dataset", "Sources", "Pairs", "Seq", fmt.Sprintf("Par(%d)", workers), "Speedup")

	deptCfg := datasets.DefaultDepartment()
	if quick {
		deptCfg = datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 5}
	}
	if heavy {
		deptCfg = datasets.HeavyDepartment()
	}
	d := datasets.NewDepartment(deptCfg)
	deptSrcs, deptTargets := d.AllPairs()
	allpairsRow(rep, "department", d.Net, deptSrcs, sefl.NewTCPPacket(), deptTargets,
		core.Options{MaxHops: 64}, workers, o)

	zones, perZone := allpairsBackboneSize(quick, heavy)
	bb := datasets.StanfordBackbone(zones, perZone)
	bbSrcs, bbTargets := bb.AllPairs()
	allpairsRow(rep, "stanford backbone", bb.Net, bbSrcs, sefl.NewIPPacket(), bbTargets,
		core.Options{}, workers, o)
	rep.printf("\n")
}

// splitAddrs parses the comma-separated -dist-workers list.
func splitAddrs(spec string) []string {
	if spec == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// allpairsDist runs all-pairs reachability through the batch seam
// (internal/dist): jobs shard across the distAddrs TCP fleet when given, each
// member running a workersPerProc pool, with the network and compiled IR
// shipped once per batch. Rows carry the full reachability matrix and a
// fingerprint of every path summary, so two runs that computed the same
// results emit identical rows — with -stable, identical bytes — regardless of
// the fleet shape. With no fleet the same code path answers in-process.
func allpairsDist(rep *reporter, quick, heavy bool, workersPerProc int, distAddrs []string, o *obs.Obs) {
	rep.printf("== All-pairs reachability, distributed (tcp fleet=%d, workers/proc=%d) ==\n", len(distAddrs), workersPerProc)
	rep.printf("%-22s %-8s %-8s %-10s %-18s %s\n", "Dataset", "Sources", "Pairs", "Reachable", "SummaryFP", "Time")

	deptCfg := datasets.DefaultDepartment()
	if quick {
		deptCfg = datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 5}
	}
	if heavy {
		deptCfg = datasets.HeavyDepartment()
	}
	d := datasets.NewDepartment(deptCfg)
	deptSrcs, deptTargets := d.AllPairs()
	allpairsDistRow(rep, "department", d.Net, deptSrcs, sefl.NewTCPPacket(), deptTargets,
		core.Options{MaxHops: 64}, workersPerProc, distAddrs, o)

	if !heavy {
		// The backbone row is omitted in heavy mode (the multicore
		// wall-clock gate): interval tables made its per-job compute so
		// cheap that shipping the forwarding tables dominates any worker
		// count — an honest setup-bound ceiling the itables experiment
		// quantifies in bytes. The department batch (deep per-job
		// exploration through switches, ASA and routers; tiny result
		// summaries) is the workload whose distribution a 4-core runner can
		// meaningfully validate.
		zones, perZone := allpairsBackboneSize(quick, heavy)
		bb := datasets.StanfordBackbone(zones, perZone)
		bbSrcs, bbTargets := bb.AllPairs()
		allpairsDistRow(rep, "stanford backbone", bb.Net, bbSrcs, sefl.NewIPPacket(), bbTargets,
			core.Options{}, workersPerProc, distAddrs, o)
	}
	rep.printf("\n")
}

func allpairsDistRow(rep *reporter, name string, net *core.Network, srcs []core.PortRef, packet sefl.Instr, targets []string, opts core.Options, workersPerProc int, distAddrs []string, o *obs.Obs) {
	opts.Obs = o
	t0 := time.Now()
	r := allPairsVia(net, srcs, packet, targets, opts, dist.Config{Workers: distAddrs, WorkersPerProc: workersPerProc})
	elapsed := time.Since(t0)

	// The matrix rides in the row as "src->tgt:count" cells, and the
	// summaries collapse to one fingerprint, so any divergence between two
	// runs (in-process vs distributed, different shard counts) is visible
	// as a row diff.
	reachable := 0
	var matrix []string
	for s := range srcs {
		var cells []string
		for t := range targets {
			if r.Reachable[s][t] {
				reachable++
			}
			cells = append(cells, fmt.Sprintf("%s:%d", targets[t], r.PathCount[s][t]))
		}
		matrix = append(matrix, srcs[s].String()+"->"+strings.Join(cells, ","))
	}
	fp := summaryFP(r)

	rep.printf("%-22s %-8d %-8d %-10d %-18s %v\n",
		name, len(srcs), r.Pairs(), reachable, fp, elapsed.Round(time.Millisecond))
	rep.add(jsonRow{
		Experiment: "allpairs-dist",
		Name:       name,
		Extra: map[string]any{
			"sources": len(srcs), "pairs": r.Pairs(), "reachable": reachable,
			"summary_fp": fp, "matrix": matrix,
			"dist_ns": elapsed.Nanoseconds(),
		},
	})
}

// summaryFP collapses every path summary of a report to one fingerprint —
// the same one whichever runner produced the report.
func summaryFP(r *verify.AllPairsReport) string {
	sums := make([]*dist.Summary, len(r.Sources))
	for i := range sums {
		sums[i] = r.Summary(i)
	}
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(sums); err != nil {
		fail(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// allPairsVia runs the all-pairs batch through the runner cfg describes —
// in-process when it names no fleet — and dismisses the runner. The runner
// reports into opts.Obs.
func allPairsVia(net *core.Network, srcs []core.PortRef, packet sefl.Instr, targets []string, opts core.Options, cfg dist.Config) *verify.AllPairsReport {
	cfg.Obs = opts.Obs
	runner, err := dist.NewRunner(cfg)
	if err != nil {
		fail(err)
	}
	defer runner.Close()
	r, err := verify.AllPairsReachability(net, srcs, packet, targets, opts, runner)
	if err != nil {
		fail(err)
	}
	return r
}

// poolJobs builds the department all-pairs batch the fleet benchmarks
// re-run.
func poolJobs(quick bool) (*core.Network, []dist.Job) {
	cfg := datasets.DefaultDepartment()
	if quick {
		cfg = datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 5}
	}
	d := datasets.NewDepartment(cfg)
	srcs, _ := d.AllPairs()
	jobs := make([]dist.Job, len(srcs))
	for i, src := range srcs {
		jobs[i] = dist.Job{Name: src.String(), Inject: src, Packet: sefl.NewTCPPacket(), Opts: core.Options{MaxHops: 64}}
	}
	return d.Net, jobs
}

// timeBatches runs the batch n times through run and returns the mean
// wall-clock per batch, failing on any per-job error.
func timeBatches(n int, run func() []dist.JobResult) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for _, jr := range run() {
			if jr.Err != nil {
				fail(fmt.Errorf("pool bench job %s: %w", jr.Name, jr.Err))
			}
		}
	}
	return time.Since(t0) / time.Duration(n)
}

// poolBench measures what the persistent fleet buys over a pool per batch,
// on two loopback TCP members — the cold path dials, handshakes and ships a
// full setup every batch, the pool does it once and reuses. A new pool is a
// new run to the members, so nothing they installed for an earlier one is
// reused. cold_ns and pool_ns share a row so benchdiff -ns-key cold_ns
// -ns-key-new pool_ns gates the reuse speedup in CI.
func poolBench(rep *reporter, quick bool) {
	net, jobs := poolJobs(quick)
	addrs, stop := spawnListenWorkers(2)
	defer stop()
	batches := 4
	rep.printf("== Worker pool reuse vs a pool per batch (tcp fleet=%d, %d jobs, %d batches) ==\n", len(addrs), len(jobs), batches)
	rep.printf("%-12s %-14s %-14s %s\n", "Case", "Cold/batch", "Pool/batch", "Speedup")

	newPool := func() *dist.Pool {
		p, err := dist.NewPool(dist.Config{Workers: addrs, WorkersPerProc: 1})
		if err != nil {
			fail(err)
		}
		return p
	}
	cold := timeBatches(batches, func() []dist.JobResult {
		p := newPool()
		defer p.Close()
		return p.RunBatch(net, jobs)
	})
	pool := newPool()
	pool.RunBatch(net, jobs) // warm: handshake + full setup land here
	warm := timeBatches(batches, func() []dist.JobResult { return pool.RunBatch(net, jobs) })
	pool.Close()
	rep.printf("%-12s %-14v %-14v %.2fx\n", "reuse", cold.Round(time.Millisecond), warm.Round(time.Millisecond), float64(cold)/float64(warm))
	rep.add(jsonRow{
		Experiment: "pool",
		Name:       "reuse",
		Extra: map[string]any{
			"cold_ns": cold.Nanoseconds(), "pool_ns": warm.Nanoseconds(),
			"fleet": len(addrs), "jobs": len(jobs), "batches": batches,
		},
	})
	rep.printf("\n")
}

// spawnListenWorkers forks n copies of this binary as TCP fleet members
// (SYMNET_DIST_WORKER=listen=:0), reading each bound address off its stdout.
// The returned stop kills them all.
func spawnListenWorkers(n int) (addrs []string, stop func()) {
	var cmds []*exec.Cmd
	stop = func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "SYMNET_DIST_WORKER=listen=127.0.0.1:0")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fail(err)
		}
		if err := cmd.Start(); err != nil {
			fail(err)
		}
		cmds = append(cmds, cmd)
		line, err := bufio.NewReader(out).ReadString('\n')
		if err != nil {
			stop()
			fail(fmt.Errorf("reading worker %d address: %w", i, err))
		}
		addrs = append(addrs, strings.TrimSpace(line))
	}
	return addrs, stop
}

// poolScale runs the same batch against TCP fleets of 1, 2, 4 and 8 workers
// — the -dist-workers list when given (prefix subsets), else self-spawned
// worker processes on loopback — charting how the persistent-fleet runtime
// scales. The nightly snapshot diffs these rows informationally.
func poolScale(rep *reporter, quick bool, distAddrs []string) {
	net, jobs := poolJobs(quick)
	addrs := distAddrs
	if len(addrs) == 0 {
		var stop func()
		addrs, stop = spawnListenWorkers(8)
		defer stop()
	}
	rep.printf("== TCP fleet scaling (%d jobs) ==\n", len(jobs))
	rep.printf("%-10s %-10s %s\n", "Fleet", "Workers", "Time/batch")
	for _, n := range []int{1, 2, 4, 8} {
		if n > len(addrs) {
			break
		}
		p, err := dist.NewPool(dist.Config{Workers: addrs[:n], WorkersPerProc: 1})
		if err != nil {
			fail(err)
		}
		p.RunBatch(net, jobs) // warm: handshake + full setup
		per := timeBatches(2, func() []dist.JobResult { return p.RunBatch(net, jobs) })
		p.Close()
		name := fmt.Sprintf("tcp-%dw", n)
		rep.printf("%-10s %-10d %v\n", name, n, per.Round(time.Millisecond))
		rep.add(jsonRow{
			Experiment: "pool-scale",
			Name:       name,
			NsPerOp:    per.Nanoseconds(),
			Extra:      map[string]any{"fleet": n, "jobs": len(jobs)},
		})
	}
	rep.printf("\n")
}

// forkheavy measures the engine's per-instruction and per-fork overhead on
// the BenchmarkForkHeavy* workloads (a state-growing prefix chain into a
// cascade of 8-way forks); it is the symbench face of the Go benchmarks so
// perf snapshots (BENCH_*.json) track the raw engine hot path across PRs.
func forkheavy(rep *reporter, quick bool) {
	rep.printf("== Fork-heavy state replication (engine microbench) ==\n")
	rep.printf("%-8s %-22s %-8s %s\n", "Case", "prefix/depth/fan", "Paths", "Time")
	reps := 5
	if quick {
		reps = 2
	}
	cases := []struct {
		name               string
		prefix, depth, fan int
	}{
		{"wide", 64, 3, 8},
		{"deep", 16, 4, 8},
	}
	for _, tc := range cases {
		net, inject := datasets.ForkHeavy(tc.prefix, tc.depth, tc.fan)
		var paths int
		best := time.Duration(0)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			res, err := core.Run(net, inject, sefl.NewTCPPacket(), core.Options{MaxHops: 1 << 12})
			if err != nil {
				fail(err)
			}
			d := time.Since(t0)
			if best == 0 || d < best {
				best = d
			}
			paths = res.Stats.Paths
		}
		rep.printf("%-8s %d/%d/%-16d %-8d %v\n", tc.name, tc.prefix, tc.depth, tc.fan, paths, best)
		rep.add(jsonRow{
			Experiment: "forkheavy",
			Name:       tc.name,
			Paths:      paths,
			NsPerOp:    best.Nanoseconds(),
			Extra:      map[string]any{"prefix": tc.prefix, "depth": tc.depth, "fan": tc.fan},
		})
	}
	rep.printf("\n")
}

// itables measures the interval-table guard compilation against its Or-tree
// reference on the egress-heavy datasets: sequential all-pairs wall clock
// with tables on vs off (same workloads, separate caches), plus the
// distributed setup-frame size (network + compiled IR, gob-encoded) with
// packed-range encoding on vs off. Encode sizes are deterministic; times are
// best-of-3 and stripped under -stable.
func itables(rep *reporter, quick bool, o *obs.Obs) {
	rep.printf("== Interval-table guards: packed tables vs Or-tree reference ==\n")
	rep.printf("%-22s %-12s %-12s %-9s %-14s %-14s %s\n",
		"Dataset", "Tables", "OrTree", "Speedup", "PackedBytes", "TreeBytes", "Shrink")

	zones, perZone := 14, 1000
	if quick {
		zones, perZone = 8, 100
	}
	bb := datasets.StanfordBackbone(zones, perZone)
	bbSrcs, bbTargets := bb.AllPairs()
	itablesRow(rep, "stanford backbone", bb.Net, bbSrcs, sefl.NewIPPacket(), bbTargets, core.Options{}, o)

	deptCfg := datasets.DefaultDepartment()
	if quick {
		deptCfg = datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 5}
	}
	d := datasets.NewDepartment(deptCfg)
	deptSrcs, deptTargets := d.AllPairs()
	itablesRow(rep, "department", d.Net, deptSrcs, sefl.NewTCPPacket(), deptTargets, core.Options{MaxHops: 64}, o)
	rep.printf("\n")
}

func itablesRow(rep *reporter, name string, net *core.Network, srcs []core.PortRef, packet sefl.Instr, targets []string, opts core.Options, obsv *obs.Obs) {
	measure := func(orTree bool) time.Duration {
		o := opts
		o.OrTreeGuards = orTree
		o.Obs = obsv
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			o.Stats, o.SatMemo = &solver.Stats{}, solver.NewSatCache()
			if obsv != nil {
				// The Or-tree passes are the experiment set's only real
				// SatCache traffic (packed tables decide guards without Sat
				// checks), so each iteration's cache reports into the shared
				// solver.satcache.* metrics.
				o.SatMemo.RegisterMetrics(obsv.Reg)
			}
			t0 := time.Now()
			if _, err := verify.AllPairsReachability(net, srcs, packet, targets, o, dist.InProcess(1, o.Obs)); err != nil {
				fail(err)
			}
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	tables := measure(false)
	orTree := measure(true)

	packedBytes := encodedSetupSize(net)
	sefl.PackedWire = false
	prog.PackedWire = false
	treeBytes := encodedSetupSize(net)
	sefl.PackedWire = true
	prog.PackedWire = true

	rep.printf("%-22s %-12v %-12v %-9s %-14d %-14d %.1fx\n",
		name, tables.Round(time.Millisecond), orTree.Round(time.Millisecond),
		fmt.Sprintf("%.2fx", float64(orTree)/float64(tables)), packedBytes, treeBytes,
		float64(treeBytes)/float64(packedBytes))
	rep.add(jsonRow{
		Experiment: "itables",
		Name:       name,
		NsPerOp:    tables.Nanoseconds(),
		Extra: map[string]any{
			"ortree_ns":    orTree.Nanoseconds(),
			"packed_bytes": packedBytes,
			"tree_bytes":   treeBytes,
		},
	})
}

// summaries measures the engine's per-element summaries against direct IR
// re-execution on the all-pairs batches: the same workload runs under the
// reference field Options.IRExec (every element visit re-executes compiled
// IR) and as the engine runs by default (each visit applies the element's
// pre-executed decision DAG), interleaved best-of-N with the reachability
// matrices cross-checked between passes. An untimed pair of passes then
// fingerprints every path summary of the sequential in-process reference
// against the default engine at -workers; the fingerprint rides in the row,
// so -stable output is byte-identical across worker counts exactly when
// reference and default agree on all of them.
// Census columns report how much of each network summarizes and how large
// the row sets get; they are deterministic and survive -stable. In -heavy
// mode only the heavy department runs — the workload the multicore CI gate
// holds to a >=1.2x summary speedup via benchdiff -ns-key ir_ns
// -ns-key-new sum_ns.
func summaries(rep *reporter, quick, heavy bool, workers int, o *obs.Obs) {
	rep.printf("== Per-element summaries: compose transfer functions vs re-execute IR ==\n")
	rep.printf("%-22s %-12s %-12s %-9s %-8s %-9s %-10s %s\n",
		"Dataset", "IR", "Summaries", "Speedup", "Summar.", "Fallback", "Rows", "MaxRows")

	deptCfg := datasets.DefaultDepartment()
	if quick {
		deptCfg = datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 5}
	}
	if heavy {
		deptCfg = datasets.HeavyDepartment()
	}
	d := datasets.NewDepartment(deptCfg)
	deptSrcs, deptTargets := d.AllPairs()
	summariesRow(rep, "department", d.Net, deptSrcs, sefl.NewTCPPacket(), deptTargets,
		core.Options{MaxHops: 64}, quick, workers, o)

	if !heavy {
		// Heavy mode scopes to the department batch alone (mirroring
		// allpairs-dist): deep per-element re-execution through switches, ASA
		// and routers is exactly what summaries amortize, so it is the
		// workload the CI speedup gate measures.
		zones, perZone := allpairsBackboneSize(quick, heavy)
		bb := datasets.StanfordBackbone(zones, perZone)
		bbSrcs, bbTargets := bb.AllPairs()
		summariesRow(rep, "stanford backbone", bb.Net, bbSrcs, sefl.NewIPPacket(), bbTargets,
			core.Options{}, quick, workers, o)
	}
	rep.printf("\n")
}

func summariesRow(rep *reporter, name string, net *core.Network, srcs []core.PortRef, packet sefl.Instr, targets []string, opts core.Options, quick bool, workers int, obsv *obs.Obs) {
	reps := 3
	if quick {
		reps = 2
	}
	// Passes interleave IR/summaries (ABAB) so machine drift hits both sides
	// equally; each pass gets fresh stats and memo cache so the speedup
	// column measures summaries, not cache warmth. The summary cache itself
	// intentionally persists across passes — it is built once per element,
	// which is the point of the design.
	var irBest, sumBest time.Duration
	var irRep, sumRep *verify.AllPairsReport
	for i := 0; i < reps; i++ {
		for _, withSum := range []bool{false, true} {
			o := opts
			o.IRExec = !withSum
			o.Obs = obsv
			o.Stats, o.SatMemo = &solver.Stats{}, solver.NewSatCache()
			if obsv != nil {
				o.SatMemo.RegisterMetrics(obsv.Reg)
			}
			t0 := time.Now()
			r, err := verify.AllPairsReachability(net, srcs, packet, targets, o, dist.InProcess(1, o.Obs))
			if err != nil {
				fail(err)
			}
			d := time.Since(t0)
			if withSum {
				sumRep = r
				if sumBest == 0 || d < sumBest {
					sumBest = d
				}
			} else {
				irRep = r
				if irBest == 0 || d < irBest {
					irBest = d
				}
			}
		}
	}
	for s := range srcs {
		for t := range targets {
			if irRep.Reachable[s][t] != sumRep.Reachable[s][t] {
				fail(fmt.Errorf("summaries %s: summary answer differs from IR at [%d][%d]", name, s, t))
			}
		}
	}
	ref := opts
	ref.IRExec = true
	refFP := summaryFP(allPairsVia(net, srcs, packet, targets, ref, dist.Config{}))
	fp := summaryFP(allPairsVia(net, srcs, packet, targets, opts, dist.Config{WorkersPerProc: workers}))
	if refFP != fp {
		fail(fmt.Errorf("summaries %s: path summaries of the default engine at workers=%d (%s) differ from the sequential IR reference (%s)", name, workers, fp, refFP))
	}

	summarized, fallbacks := 0, 0
	var rowsTotal, rowsMax int64
	rowsMaxElem := ""
	for _, c := range core.SummaryCensus(net) {
		if !c.Summarized {
			fallbacks++
			continue
		}
		summarized++
		rowsTotal += c.Rows
		if c.Rows > rowsMax {
			rowsMax, rowsMaxElem = c.Rows, c.Elem
		}
	}

	rep.printf("%-22s %-12v %-12v %-9s %-8d %-9d %-10d %d (%s)\n",
		name, irBest.Round(time.Millisecond), sumBest.Round(time.Millisecond),
		fmt.Sprintf("%.2fx", float64(irBest)/float64(sumBest)),
		summarized, fallbacks, rowsTotal, rowsMax, rowsMaxElem)
	rep.add(jsonRow{
		Experiment: "summaries",
		Name:       name,
		NsPerOp:    sumBest.Nanoseconds(),
		Extra: map[string]any{
			"sources": len(srcs), "pairs": irRep.Pairs(),
			"ir_ns": irBest.Nanoseconds(), "sum_ns": sumBest.Nanoseconds(),
			"speedup":          float64(irBest) / float64(sumBest),
			"summary_fp":       fp,
			"elems_summarized": summarized, "elems_fallback": fallbacks,
			"rows_total": rowsTotal, "rows_max": rowsMax, "rows_max_elem": rowsMaxElem,
		},
	})
}

// encodedSetupSize gob-encodes the distributed setup payload — the network
// spec plus every compiled program, exactly what the coordinator ships each
// worker — and returns its size in bytes.
func encodedSetupSize(net *core.Network) int {
	wn, err := core.EncodeNetwork(net)
	if err != nil {
		fail(err)
	}
	progs, err := core.EncodePrograms(net)
	if err != nil {
		fail(err)
	}
	var n countWriter
	enc := gob.NewEncoder(&n)
	if err := enc.Encode(wn); err != nil {
		fail(err)
	}
	if err := enc.Encode(progs); err != nil {
		fail(err)
	}
	return int(n)
}

// countWriter counts bytes written.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

func allpairsRow(rep *reporter, name string, net *core.Network, srcs []core.PortRef, packet sefl.Instr, targets []string, opts core.Options, workers int, o *obs.Obs) {
	// Each pass gets its own stats collector and memo cache: a cache
	// warmed by the sequential pass would inflate the parallel pass (and
	// the speedup column would conflate memoization with parallelism).
	var seqStats, parStats solver.Stats
	seqMemo, parMemo := solver.NewSatCache(), solver.NewSatCache()
	seqOpts, parOpts := opts, opts
	seqOpts.Stats, seqOpts.SatMemo = &seqStats, seqMemo
	parOpts.Stats, parOpts.SatMemo = &parStats, parMemo
	seqOpts.Obs, parOpts.Obs = o, o
	if o != nil {
		// Both caches report under the shared solver.satcache.* metrics
		// (like-named counter funcs sum at snapshot time).
		seqMemo.RegisterMetrics(o.Reg)
		parMemo.RegisterMetrics(o.Reg)
	}
	t0 := time.Now()
	seqRep, err := verify.AllPairsReachability(net, srcs, packet, targets, seqOpts, dist.InProcess(1, o))
	if err != nil {
		fail(err)
	}
	seq := time.Since(t0)
	t0 = time.Now()
	parRep, err := verify.AllPairsReachability(net, srcs, packet, targets, parOpts, dist.InProcess(workers, o))
	if err != nil {
		fail(err)
	}
	par := time.Since(t0)
	for s := range srcs {
		for t := range targets {
			if seqRep.Reachable[s][t] != parRep.Reachable[s][t] {
				fail(fmt.Errorf("allpairs %s: parallel answer differs at [%d][%d]", name, s, t))
			}
		}
	}
	// Fold the sequential pass's cache totals into its stats at the reporting
	// boundary (single-worker pass, so the totals are deterministic — the
	// parallel pass's are not and stay in the metrics snapshot only).
	seqStats.AddCache(seqMemo)
	rep.printf("%-22s %-8d %-8d %-12v %-12v %.2fx\n",
		name, len(srcs), seqRep.Pairs(), seq.Round(time.Millisecond), par.Round(time.Millisecond),
		float64(seq)/float64(par))
	rep.add(jsonRow{
		Experiment: "allpairs",
		Name:       name,
		Solver:     &seqStats,
		Extra: map[string]any{
			"sources": len(srcs), "pairs": seqRep.Pairs(),
			"seq_ns": seq.Nanoseconds(), "par_ns": par.Nanoseconds(),
			"workers": workers, "speedup": float64(seq) / float64(par),
			"memo_hits": seqMemo.Hits(), "memo_misses": seqMemo.Misses(),
		},
	})
}

// churnBench measures incremental verification under rule churn: a resident
// churn.Service absorbs a deterministic delta stream (the symgen -gen churn
// generator) and the per-delta absorption latency is compared against what a
// non-incremental verifier pays per control-plane event — model regeneration
// plus a cold from-scratch all-pairs run. The injected packets are
// destination-constrained so deltas stay localized, which is the regime the
// dependency tracker exploits: full_ns / delta_ns is the CI speedup gate.
func churnBench(rep *reporter, quick, heavy bool, workers int, o *obs.Obs) {
	rep.printf("== Incremental verification under rule churn: per-delta vs full recompute ==\n")
	rep.printf("%-22s %-8s %-8s %-12s %-12s %-9s %s\n",
		"Dataset", "Deltas", "Dirty", "Delta(med)", "Full", "Speedup", "Actions")

	var reg *obs.Registry
	if o != nil {
		reg = o.Reg
	}
	nDeltas := 30
	if quick {
		nDeltas = 10
	}

	// Backbone: route churn on the last zone's FIB while the verified
	// traffic is pinned to zone0's /16 — only the churned zone's own source
	// ever attempts its egress guards.
	zones, perZone := allpairsBackboneSize(quick, heavy)
	churned := fmt.Sprintf("zone%d", zones-1)
	bb := datasets.StanfordBackbone(zones, perZone)
	bbSrcs, bbTargets := bb.AllPairs()
	bbPacket := sefl.Seq(
		sefl.NewIPPacket(),
		sefl.Constrain{C: sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: sefl.IPToNumber("10.0.0.0"), Len: 16}},
	)
	// Inserts draw from the RFC 2544 benchmark range: at paper scale the
	// zone's own /16 is fully populated. Localization is unaffected — the
	// dirty set depends on whose guards change, not on the prefix.
	bbDeltas, err := churn.GenFIBDeltas(churned, bb.FIBs[churned], "198.18.0.0/15", nDeltas, 3)
	if err != nil {
		fail(err)
	}
	bbFresh := func() *core.Network { return datasets.StanfordBackbone(zones, perZone).Net }
	bbRegister := func(svc *churn.Service) {
		for name, fib := range bb.FIBs {
			svc.RegisterRouter(name, fib)
		}
	}
	churnRow(rep, "stanford backbone", bbFresh, bbRegister,
		bbSrcs, bbPacket, bbTargets, core.Options{}, bbDeltas, workers, quick, reg)

	// Department: MAC churn on one access switch while the verified traffic
	// is pinned to the ASA's MAC (the first IP hop) — sibling access
	// switches' guards kill every other source's exploration at the
	// aggregation layer.
	deptCfg := datasets.DefaultDepartment()
	if quick {
		deptCfg = datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 5}
	}
	if heavy {
		deptCfg = datasets.HeavyDepartment()
	}
	d := datasets.NewDepartment(deptCfg)
	deptSrcs, deptTargets := d.AllPairs()
	deptPacket := sefl.Seq(
		sefl.NewTCPPacket(),
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(sefl.MACToNumber(d.ASAMac), sefl.MACWidth))},
	)
	deptDeltas, err := churn.GenMACDeltas("asw1", d.MACTables["asw1"], nDeltas, 5)
	if err != nil {
		fail(err)
	}
	deptFresh := func() *core.Network { return datasets.NewDepartment(deptCfg).Net }
	deptRegister := func(svc *churn.Service) {
		for name, tbl := range d.MACTables {
			svc.RegisterSwitch(name, tbl)
		}
		for name, fib := range d.FIBs {
			svc.RegisterRouter(name, fib)
		}
	}
	churnRow(rep, "department", deptFresh, deptRegister,
		deptSrcs, deptPacket, deptTargets, core.Options{MaxHops: 64}, deptDeltas, workers, quick, reg)
	rep.printf("\n")

	// Batched variant: the same-table burst absorbed one delta at a time
	// (N patch + re-verify passes) vs staged and committed as one coalesced
	// batch (one patch pass, one re-verification over the union dirty set) —
	// the serving layer's delta-coalescing claim.
	rep.printf("== Delta batching: 10-delta same-table burst, sequential vs coalesced ==\n")
	rep.printf("%-22s %-8s %-12s %-12s %-9s %s\n",
		"Dataset", "Deltas", "Seq", "Batch", "Speedup", "Batch result")
	bbBurst, err := churn.GenFIBDeltas(churned, bb.FIBs[churned], "198.19.0.0/16", 10, 17)
	if err != nil {
		fail(err)
	}
	churnBurstRow(rep, "stanford backbone", bbFresh, bbRegister,
		bbSrcs, bbPacket, bbTargets, core.Options{}, bbBurst, workers, reg)
	deptBurst, err := churn.GenMACDeltas("asw1", d.MACTables["asw1"], 10, 13)
	if err != nil {
		fail(err)
	}
	churnBurstRow(rep, "department", deptFresh, deptRegister,
		deptSrcs, deptPacket, deptTargets, core.Options{MaxHops: 64}, deptBurst, workers, reg)
	rep.printf("\n")
}

// churnBurstRow measures delta coalescing on one dataset: a fresh resident
// service absorbs the burst one Apply at a time (what a naive serving loop
// pays), a second fresh service absorbs the identical burst as one
// ApplyBatch. seq_burst_ns and batch_burst_ns are columns of the same row,
// so benchdiff can gate their ratio; the final reports are byte-identical
// (pinned by TestBatchCoalescingSameTable in internal/churn).
func churnBurstRow(rep *reporter, name string, fresh func() *core.Network, register func(*churn.Service),
	srcs []core.PortRef, packet sefl.Instr, targets []string, opts core.Options,
	deltas []churn.Delta, workers int, reg *obs.Registry) {
	build := func() *churn.Service {
		svc := churn.NewService(churn.Config{
			Net: fresh(), Sources: srcs, Targets: targets,
			Packet: packet, Opts: opts, Runner: dist.InProcess(workers, opts.Obs), Reg: reg,
		})
		register(svc)
		if err := svc.Init(); err != nil {
			fail(err)
		}
		return svc
	}

	seqSvc := build()
	t0 := time.Now()
	for _, d := range deltas {
		if _, err := seqSvc.Apply(d); err != nil {
			fail(err)
		}
	}
	seqDur := time.Since(t0)

	batchSvc := build()
	t0 = time.Now()
	br, err := batchSvc.ApplyBatch(deltas)
	if err != nil {
		fail(err)
	}
	batchDur := time.Since(t0)

	speedup := float64(seqDur) / float64(batchDur)
	rep.printf("%-22s %-8d %-12v %-12v %-9s elems=%d dirty=%d reverified=%d\n",
		name, len(deltas), seqDur.Round(time.Microsecond), batchDur.Round(time.Microsecond),
		fmt.Sprintf("%.1fx", speedup), br.Elems, br.DirtySources, br.CellsReverified)
	rep.add(jsonRow{
		Experiment: "churn",
		Name:       name + " burst",
		NsPerOp:    batchDur.Nanoseconds(),
		Extra: map[string]any{
			"deltas": len(deltas), "elems": br.Elems,
			"dirty_sources": br.DirtySources, "cells_reverified": br.CellsReverified,
			"seq_burst_ns": seqDur.Nanoseconds(), "batch_burst_ns": batchDur.Nanoseconds(),
			"speedup": speedup, "workers": workers,
		},
	})
}

// churnRow measures one dataset: best-of-N cold full recomputes (fresh
// network, fresh memo — what every delta costs without incrementality), then
// a resident service absorbing the delta stream. full_ns and delta_ns are
// columns of the same row so benchdiff can gate their ratio; the result
// columns (dirty, reverified, action tiers) are deterministic and survive
// -stable for differential runs.
func churnRow(rep *reporter, name string, fresh func() *core.Network, register func(*churn.Service),
	srcs []core.PortRef, packet sefl.Instr, targets []string, opts core.Options,
	deltas []churn.Delta, workers int, quick bool, reg *obs.Registry) {
	fullReps := 3
	if quick {
		fullReps = 2
	}
	var fullBest time.Duration
	for i := 0; i < fullReps; i++ {
		fo := opts
		fo.SatMemo = solver.NewSatCache()
		t0 := time.Now()
		if _, err := verify.AllPairsReachability(fresh(), srcs, packet, targets, fo, dist.InProcess(workers, fo.Obs)); err != nil {
			fail(err)
		}
		if d := time.Since(t0); fullBest == 0 || d < fullBest {
			fullBest = d
		}
	}

	svc := churn.NewService(churn.Config{
		Net: fresh(), Sources: srcs, Targets: targets,
		Packet: packet, Opts: opts, Runner: dist.InProcess(workers, opts.Obs), Reg: reg,
	})
	register(svc)
	t0 := time.Now()
	if err := svc.Init(); err != nil {
		fail(err)
	}
	initDur := time.Since(t0)

	lat := make([]time.Duration, 0, len(deltas))
	actions := map[churn.Action]int{}
	dirtyTotal, reverified := 0, 0
	for _, d := range deltas {
		res, err := svc.Apply(d)
		if err != nil {
			fail(err)
		}
		lat = append(lat, res.Elapsed)
		actions[res.Action]++
		dirtyTotal += res.DirtySources
		reverified += res.CellsReverified
	}
	med := medianDur(lat)
	speedup := float64(fullBest) / float64(med)
	rep.printf("%-22s %-8d %-8d %-12v %-12v %-9s patch=%d recompile=%d rebuild=%d noop=%d\n",
		name, len(deltas), dirtyTotal, med.Round(time.Microsecond), fullBest.Round(time.Millisecond),
		fmt.Sprintf("%.1fx", speedup),
		actions[churn.ActionPatched], actions[churn.ActionRecompiled],
		actions[churn.ActionRebuilt], actions[churn.ActionNoop])
	rep.add(jsonRow{
		Experiment: "churn",
		Name:       name,
		NsPerOp:    med.Nanoseconds(),
		Extra: map[string]any{
			"deltas": len(deltas), "dirty_total": dirtyTotal,
			"cells_total": svc.TotalCells(), "cells_reverified": reverified,
			"patched": actions[churn.ActionPatched], "recompiled": actions[churn.ActionRecompiled],
			"rebuilt": actions[churn.ActionRebuilt], "noop": actions[churn.ActionNoop],
			"full_ns": fullBest.Nanoseconds(), "delta_ns": med.Nanoseconds(), "init_ns": initDur.Nanoseconds(),
			"speedup": speedup, "workers": workers,
		},
	})
}

// medianDur returns the median of a non-empty latency sample.
func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
