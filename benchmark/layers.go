package main

import (
	"symnet/internal/core"
	"symnet/internal/models"
	"symnet/internal/tables"
)

// spanMetrics maps a per-layer time to the span name that measures it.
var spanMetrics = map[string]string{
	"tables.parse_ms":    "tables.parse",
	"tables.lpm_ms":      "tables.lpm",
	"models.router_ms":   "models.router",
	"models.switch_ms":   "models.switch",
	"prog.compile_ms":    "prog.compile",
	"core.run_ms":        "core.run",
	"sched.batch_ms":     "sched.batch",
	"verify.allpairs_ms": "verify.allpairs",
	"dist.encode_ms":     "dist.encode",
	"dist.decode_ms":     "dist.decode",
	"dist.batch_ms":      "dist.batch",
	"churn.init_ms":      "churn.init",
}

// compileCounters are registry counters that move when code is built: their
// metric is what one set-up did plus what one operation did. runCounters
// move when code runs: their metric is per operation.
var compileCounters = map[string]string{
	"prog.compile_count":  "prog.compile.count",
	"prog.itable_lowered": "prog.itable.lowered",
	"prog.summary_built":  "summary.built",
	"dist.setup_full":     "dist.setup.full",
}

var runCounters = map[string]string{
	"prog.itable_fallbacks":  "prog.itable.fallbacks",
	"prog.summary_hits":      "summary.hits",
	"prog.summary_fallbacks": "summary.fallbacks",
	"core.progcache_hits":    "core.progcache.hits",
	"core.progcache_misses":  "core.progcache.misses",
	"solver.satcache_hits":   "solver.satcache.hits",
	"solver.satcache_misses": "solver.satcache.misses",
	"sched.steals":           "sched.steals",
	"dist.setup_delta":       "dist.setup.delta",
	"dist.jobs_stolen":       "dist.jobs.stolen",
	"dist.jobs_redispatched": "dist.jobs.redispatched",
}

// layerMetrics derives the per-layer numbers every workload shares from the
// spans, the pass counters and the registry's growth in set-up and in passes.
func layerMetrics(m metrics, spans []span, c counts, ops int, regSetup, regOps map[string]int64) {
	inOps, inSetup := map[string]map[int]float64{}, map[string]float64{}
	for _, s := range spans {
		if s.Op == 0 {
			inSetup[s.Name] += float64(s.dur()) / 1e6
			continue
		}
		if inOps[s.Name] == nil {
			inOps[s.Name] = map[int]float64{}
		}
		inOps[s.Name][s.Op] += float64(s.dur()) / 1e6
	}
	// The time one operation spends under a span name is the median, over
	// the operations that enter it, of their totals: differences of two such
	// numbers (matrix_ms, tax_ms) would drown in a mean's outliers. A name
	// entered in set-up reads what one set-up spent there.
	spanMs := func(name string) float64 {
		var totals []float64
		for _, v := range inOps[name] {
			totals = append(totals, v)
		}
		return median(totals) + inSetup[name]
	}
	for metric, name := range spanMetrics {
		m.set(metric, spanMs(name))
	}
	for metric, name := range compileCounters {
		m.set(metric, perOp(float64(regOps[name]), ops)+float64(regSetup[name]))
	}
	for metric, name := range runCounters {
		m.set(metric, perOp(float64(regOps[name]), ops))
	}

	// A metric that compares two layers compares them operation by operation,
	// over the operations that entered both, and is the median of that.
	paired := func(a, b string, f func(a, b float64) float64) float64 {
		var vs []float64
		for op, va := range inOps[a] {
			if vb, ok := inOps[b][op]; ok {
				vs = append(vs, f(va, vb))
			}
		}
		return median(vs)
	}
	minus := func(a, b float64) float64 { return a - b }
	m.set("sched.overhead_ratio", paired("sched.batch", "core.run", func(a, b float64) float64 { return a / b }))
	m.set("verify.matrix_ms", paired("verify.allpairs", "sched.batch", minus))
	m.set("dist.tax_ms", paired("dist.batch", "sched.batch", minus))
	runs, allpairs := spanMs("core.run"), spanMs("verify.allpairs")

	m.set("core.hops_per_op", perOp(float64(c.hops), ops))
	m.set("core.paths_per_op", perOp(float64(c.paths), ops))
	m.set("core.pruned_per_op", perOp(float64(c.pruned), ops))
	if c.hops > 0 {
		m.set("core.ns_per_hop", runs*1e6/perOp(float64(c.hops), ops))
	}
	m.set("solver.adds_per_op", perOp(float64(c.adds), ops))
	m.set("solver.sat_checks_per_op", perOp(float64(c.satChecks), ops))
	m.set("solver.branches_per_op", perOp(float64(c.branches), ops))
	m.set("verify.pairs_delivered", perOp(float64(c.pairsDelivered), ops))
	m.set("verify.pairs_unreachable", perOp(float64(c.pairsUnreach), ops))

	if deltas := c.macDeltas + c.fibDeltas; deltas > 0 {
		deltaMs := float64(c.macDeltaNs+c.fibDeltaNs) / 1e6
		m.set("churn.mac_delta_ms", perOp(float64(c.macDeltaNs)/1e6, c.macDeltas))
		m.set("churn.fib_delta_ms", perOp(float64(c.fibDeltaNs)/1e6, c.fibDeltas))
		m.set("churn.publish_lag_ms", perOp(float64(c.publishLagNs)/1e6, deltas))
		m.set("churn.dirty_sources_per_delta", perOp(float64(c.dirtySources), deltas))
		m.set("churn.cells_reverified_per_delta", perOp(float64(c.cellsReverif), deltas))
		m.set("churn.useful_ratio", perOp(float64(c.transitions), c.cellsReverif))
		m.set("churn.ports_patched", perOp(float64(c.portsPatched), deltas))
		m.set("churn.ports_recompiled", perOp(float64(c.portsRecomp), deltas))
		m.set("churn.elems_rebuilt", perOp(float64(c.elemsRebuilt), deltas))
		if allpairs > 0 {
			m.set("churn.vs_full_ratio", perOp(deltaMs, deltas)/allpairs)
		}
	}
}

// deptSetupLayers times, on scratch elements, one modelling of every table
// the department carries, which is the share of set-up spent in tables and
// models (NewDepartment and Serve make these calls inside, out of a span's
// reach), and sizes the compiled programs.
func deptSetupLayers(tr *tracer, x *dept, m metrics) {
	scratch := core.NewNetwork()
	probe := tr.begin("probe", 0, 0)
	exclusions := 0
	for name, tbl := range x.d.MACTables {
		e, _ := x.d.Net.Element(name)
		se := scratch.AddElement(name, e.Kind, e.NumIn, e.NumOut)
		tr.stage("models.switch", probe, 0, func() error { return models.Switch(se, tbl, models.Egress) })
	}
	for name, fib := range x.d.FIBs {
		e, _ := x.d.Net.Element(name)
		se := scratch.AddElement(name, e.Kind, e.NumIn, e.NumOut)
		var compiled []tables.CompiledRoute
		tr.stage("tables.lpm", probe, 0, func() error {
			compiled = tables.CompileLPM(fib)
			return nil
		})
		exclusions += tables.NumExclusions(compiled)
		tr.stage("models.router", probe, 0, func() error { return models.Router(se, fib, models.Egress) })
	}
	tr.end(probe)
	m.set("tables.lpm_exclusions", float64(exclusions))
	if n, err := programBytes(x.d.Net); err == nil {
		m.set("prog.encode_bytes", float64(n))
	}
}
