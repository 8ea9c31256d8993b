package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatchesHarness keeps the two
// from drifting apart.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, the same on every workload.
// The share of operations that failed is not among them, because the driver
// wants end-to-end metrics that are never 0: the result line carries it as
// failed/attempted, a run with any failure exits non-zero, and the traced
// run reports it as fail_ratio.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"resident_mb", "MB", "lower"},
}

// bounds is, per end-to-end metric, the share of the parent's median by
// which it may get worse before a change counts as a regression. Times get
// the widest bounds because the host adds time at will; the allocation
// counts repeat to four digits and get the tightest.
var bounds = map[string]float64{
	"setup_s":         0.25,
	"op_ms":           0.25,
	"alloc_mb_per_op": 0.02,
	"allocs_per_op":   0.02,
	"resident_mb":     0.05,
}

// perLayer are the metrics of a traced run. Times and counts are per
// operation unless the README's table says per set-up; a layer the workload
// does not enter reads 0.
var perLayer = []metricDef{
	{"tables.parse_ms", "ms", "lower"},
	{"tables.lpm_ms", "ms", "lower"},
	{"tables.lpm_exclusions", "count", "lower"},

	{"models.router_ms", "ms", "lower"},
	{"models.switch_ms", "ms", "lower"},

	{"prog.compile_ms", "ms", "lower"},
	{"prog.compile_count", "count", "lower"},
	{"prog.itable_lowered", "count", "higher"},
	{"prog.itable_fallbacks", "count", "lower"},
	{"prog.summary_built", "count", "higher"},
	{"prog.summary_hits", "count", "higher"},
	{"prog.summary_fallbacks", "count", "lower"},
	{"prog.encode_bytes", "bytes", "lower"},

	{"core.run_ms", "ms", "lower"},
	{"core.hops_per_op", "count", "lower"},
	{"core.paths_per_op", "count", "lower"},
	{"core.pruned_per_op", "count", "lower"},
	{"core.ns_per_hop", "ns", "lower"},
	{"core.progcache_hits", "count", "higher"},
	{"core.progcache_misses", "count", "lower"},

	{"solver.adds_per_op", "count", "lower"},
	{"solver.sat_checks_per_op", "count", "lower"},
	{"solver.branches_per_op", "count", "lower"},
	{"solver.satcache_hits", "count", "higher"},
	{"solver.satcache_misses", "count", "lower"},

	{"sched.batch_ms", "ms", "lower"},
	{"sched.overhead_ratio", "ratio", "lower"},
	{"sched.steals", "count", "lower"},

	{"verify.allpairs_ms", "ms", "lower"},
	{"verify.matrix_ms", "ms", "lower"},
	{"verify.pairs_delivered", "count", "higher"},
	{"verify.pairs_unreachable", "count", "lower"},

	{"dist.encode_ms", "ms", "lower"},
	{"dist.decode_ms", "ms", "lower"},
	{"dist.setup_bytes", "bytes", "lower"},
	{"dist.bytes_out_per_op", "bytes", "lower"},
	{"dist.bytes_in_per_op", "bytes", "lower"},
	{"dist.batch_ms", "ms", "lower"},
	{"dist.tax_ms", "ms", "lower"},
	{"dist.setup_full", "count", "lower"},
	{"dist.setup_delta", "count", "lower"},
	{"dist.jobs_stolen", "count", "lower"},
	{"dist.jobs_redispatched", "count", "lower"},

	{"churn.init_ms", "ms", "lower"},
	{"churn.mac_delta_ms", "ms", "lower"},
	{"churn.fib_delta_ms", "ms", "lower"},
	{"churn.publish_lag_ms", "ms", "lower"},
	{"churn.dirty_sources_per_delta", "count", "lower"},
	{"churn.cells_reverified_per_delta", "count", "lower"},
	{"churn.useful_ratio", "ratio", "higher"},
	{"churn.ports_patched", "count", "higher"},
	{"churn.ports_recompiled", "count", "lower"},
	{"churn.elems_rebuilt", "count", "lower"},
	{"churn.vs_full_ratio", "ratio", "lower"},
	{"churn.exit_fib_delta_ms", "ms", "lower"},
	{"churn.read_us", "us", "lower"},
	{"churn.restore_ms", "ms", "lower"},

	{"harness.probe_ms", "ms", "lower"},
	{"harness.op_p50_ms", "ms", "lower"},
	{"harness.op_p90_ms", "ms", "lower"},
	{"harness.gc_cycles_per_op", "count", "lower"},
	{"harness.gc_pause_ms_per_op", "ms", "lower"},
	{"harness.trace_overhead_ratio", "ratio", "lower"},
	{"harness.stage_sum_ratio", "ratio", "higher"},

	{"fail_ratio", "ratio", "lower"},
}

func unitOf(name string) (string, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}
