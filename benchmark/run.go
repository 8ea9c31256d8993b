package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"symnet/internal/obs"
)

// workloadNames is the order every listing uses. The names are final: later
// issues cite them.
var workloadNames = []string{"cold_router", "allpairs_dept", "forkheavy", "fleet_allpairs", "serve_churn"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cold_router":
		return &coldRouter{}, nil
	case "allpairs_dept":
		return &allpairsDept{}, nil
	case "forkheavy":
		return &forkHeavy{}, nil
	case "fleet_allpairs":
		return &fleetAllpairs{}, nil
	case "serve_churn":
		return &serveChurn{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// config is one run's settings. seconds is the one size there is: the timed
// section runs passes until it is spent, and set-up is repeated until an
// eighth of it is.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
}

// outcome is the result line: the last line of standard output.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// info is the diagnostics line written to standard error beside the result.
type info struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Traced     bool    `json:"traced"`
	SetupReps  int     `json:"setup_reps"`
	Passes     int     `json:"passes"`
	Ops        int     `json:"ops"`
	TimedS     float64 `json:"timed_s"`
	OpP50Ms    float64 `json:"op_p50_ms"`
	OpP90Ms    float64 `json:"op_p90_ms"`
	FirstError string  `json:"first_error,omitempty"`
}

// setupOnce generates the inputs and builds the system, timing both.
func setupOnce(w workload, seed int64, tr *tracer, o *obs.Obs) (*instance, time.Duration, error) {
	runtime.GC()
	t := time.Now()
	defer tr.end(tr.enter("setup"))
	if err := w.generate(seed); err != nil {
		return nil, 0, fmt.Errorf("generate: %w", err)
	}
	inst, err := w.setup(tr, o)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return inst, time.Since(t), nil
}

// prepare makes the workload, generates its inputs once and computes the
// reference outputs; none of it is timed.
func prepare(cfg config) (workload, error) {
	// One processor: this measures what the work costs, not how it spreads.
	// Concurrent collection on a contended second core was half of the noise
	// (README, measurement rules).
	runtime.GOMAXPROCS(1)
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := w.generate(cfg.seed); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if err := w.reference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return w, nil
}

// run executes one workload as cfg says and returns the result line.
func run(cfg config) (outcome, info, error) {
	w, err := prepare(cfg)
	if err != nil {
		return outcome{}, info{}, err
	}
	if cfg.trace {
		return runTraced(cfg, w)
	}
	return runPlain(cfg, w)
}

func newInfo(cfg config) info {
	return info{Workload: cfg.workload, Seed: cfg.seed, GOMAXPROCS: runtime.GOMAXPROCS(0), Traced: cfg.trace}
}

func (cfg config) budget() time.Duration { return time.Duration(cfg.seconds * float64(time.Second)) }

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(cfg config, w workload) (outcome, info, error) {
	inf := newInfo(cfg)
	probe, err := newMemProbe()
	if err != nil {
		return outcome{}, inf, err
	}
	defer probe.close()
	// Set-up is repeated for an eighth of the run: at 16 s that is ten times
	// for the slowest set-up (0.2 s) and over a hundred for the fastest.
	var setups []float64
	var before, after []time.Duration
	var inst *instance
	spent, last := 0.0, probe.run()
	for len(setups) == 0 || spent < cfg.seconds/8 {
		if inst != nil {
			inst.close()
		}
		var d time.Duration
		if inst, d, err = setupOnce(w, cfg.seed, nil, nil); err != nil {
			return outcome{}, inf, err
		}
		setups = append(setups, d.Seconds())
		before = append(before, last)
		last = probe.run()
		after = append(after, last)
		spent += d.Seconds()
	}
	defer inst.close()
	rec := &recorder{}
	timed := newSectionRun(inst, rec, nil)
	if err := measure(probe, cfg.budget(), timed); err != nil {
		return outcome{}, inf, err
	}
	sec := timed.sec
	finish(inst, rec)

	m := metrics{}
	m.set("setup_s", quietTime(setups, before, after))
	m.set("op_ms", sec.opMs(inst.opsPerPass))
	m.set("alloc_mb_per_op", perOp(float64(sec.allocBytes)/1e6, sec.ops))
	m.set("allocs_per_op", perOp(float64(sec.mallocs), sec.ops))
	m.set("resident_mb", float64(sec.residentB)/1e6)
	inf.fill(rec, sec)
	inf.SetupReps = len(setups)
	// Every set-up rep ended in one verified first result.
	return outcome{rec.failed == 0, rec.attempted + len(setups), rec.failed, m}, inf, nil
}

// finish runs the workload's end-of-run checks; a failure there is one more
// failed operation.
func finish(inst *instance, rec *recorder) {
	if inst.finish == nil {
		return
	}
	defer rec.tr.end(rec.tr.enter("finish"))
	rec.attempted++
	if err := inst.finish(rec); err != nil {
		rec.fail(err)
	}
}

func (inf *info) fill(rec *recorder, sec section) {
	walls := durationsMs(rec.opWall)
	inf.Passes, inf.Ops, inf.TimedS = len(sec.passWall), sec.ops, sec.wall.Seconds()
	inf.OpP50Ms, inf.OpP90Ms = median(walls), quantile(walls, 0.9)
	inf.FirstError = rec.firstErr
}

// runTraced is the separate run that yields the per-layer numbers. It sets
// the workload up twice, once plainly and once with spans, an obs.Registry
// and the layer probes switched on, and measures the two side by side,
// alternating passes. The ratio of their op_ms is the tracing overhead.
func runTraced(cfg config, w workload) (outcome, info, error) {
	inf := newInfo(cfg)
	probe, err := newMemProbe()
	if err != nil {
		return outcome{}, inf, err
	}
	defer probe.close()
	plain, _, err := setupOnce(w, cfg.seed, nil, nil)
	if err != nil {
		return outcome{}, inf, err
	}
	defer plain.close()
	plainRec := &recorder{}

	tr := newTracer()
	reg := newRegistries()
	before := reg.counters()
	inst, _, err := setupOnce(w, cfg.seed, tr, obs.New(reg.main, nil))
	if err != nil {
		return outcome{}, inf, err
	}
	defer inst.close()
	inSetup := reg.counters()
	for k := range inSetup {
		inSetup[k] -= before[k]
	}
	rec := &recorder{tr: tr, probes: true}

	plainRun, tracedRun := newSectionRun(plain, plainRec, nil), newSectionRun(inst, rec, reg)
	if err := measure(probe, cfg.budget()*4/5, plainRun, tracedRun); err != nil {
		return outcome{}, inf, err
	}
	plainSec, sec := plainRun.sec, tracedRun.sec
	ops := rec.attempted
	finish(inst, rec)

	m := metrics{}
	for _, d := range perLayer {
		m.set(d.name, 0)
	}
	inst.layers(rec, m)
	layerMetrics(m, tr.spans, rec.c, ops, inSetup, sec.counters)

	walls := durationsMs(plainRec.opWall)
	m.set("harness.op_p50_ms", median(walls))
	m.set("harness.op_p90_ms", quantile(walls, 0.9))
	m.set("harness.gc_cycles_per_op", perOp(float64(plainSec.gcCycles), plainSec.ops))
	m.set("harness.gc_pause_ms_per_op", perOp(float64(plainSec.gcPauseNs)/1e6, plainSec.ops))
	m.set("harness.probe_ms", median(durationsMs(plainSec.probeAfter)))
	m.set("harness.trace_overhead_ratio", sec.ownOpMs(inst.opsPerPass)/plainSec.ownOpMs(plain.opsPerPass))
	m.set("harness.stage_sum_ratio", stageSumRatio(tr.spans))

	if cfg.traceOut != "" {
		if err := writeTrace(tr, cfg.traceOut); err != nil {
			return outcome{}, inf, err
		}
	}
	inf.fill(plainRec, plainSec)
	if inf.FirstError == "" {
		inf.FirstError = rec.firstErr
	}
	// The two set-ups each ended in one verified first result.
	failed, attempted := rec.failed+plainRec.failed, rec.attempted+plainRec.attempted+2
	m.set("fail_ratio", float64(failed)/float64(attempted))
	return outcome{failed == 0, attempted, failed, m}, inf, nil
}

func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
