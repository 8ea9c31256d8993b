package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"symnet/internal/obs"
	"symnet/internal/prog"
	"symnet/internal/solver"
)

// A workload is one named set of inputs and the system built over them. The
// harness calls generate then setup for every set-up repetition and
// reference once; the program under test is handed what generate made and
// never the seed or the workload's name.
type workload interface {
	// generate derives every seed-dependent input. It is part of set-up time.
	generate(seed int64) error
	// inputBytes is the canonical form of the generated inputs, for the
	// determinism tests.
	inputBytes() []byte
	// reference computes, by an independent route, what correct outputs look
	// like. It is harness work: untimed, once per run, before set-up.
	reference() error
	// setup builds the system from the generated inputs up to and including
	// its first verified result. tr and o are nil on an untraced run.
	setup(tr *tracer, o *obs.Obs) (*instance, error)
}

// instance is one built system, ready to run passes.
type instance struct {
	opsPerPass int
	// pass runs the fixed list of operations, starting from the same resident
	// state every time, and records each one on r.
	pass func(r *recorder)
	// between restores that state when a pass changes it; untimed.
	between func() error
	// finish runs the end-of-run output checks; untimed.
	finish func(r *recorder) error
	// layers adds the workload's per-layer numbers after a traced section.
	layers func(r *recorder, m metrics)
	close  func()
	// memo is the session's satisfiability memo, when the workload has one
	// session for its whole life.
	memo *solver.SatCache
}

// recorder collects what the passes of one timed section did.
type recorder struct {
	tr        *tracer
	probes    bool // traced section: passes also call the lower layers directly
	opWall    []time.Duration
	attempted int
	failed    int
	firstErr  string
	c         counts
}

// op records one finished operation; a non-nil err counts it as failed.
func (r *recorder) op(d time.Duration, err error) {
	r.opWall = append(r.opWall, d)
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

// counts are the integer totals pass functions add to; the layer metrics
// divide them by the operations run.
type counts struct {
	hops, paths, pruned          int
	adds, satChecks, branches    int
	pairsDelivered, pairsUnreach int
	dirtySources, cellsReverif   int
	transitions                  int
	portsPatched, portsRecomp    int
	elemsRebuilt                 int
	macDeltaNs, fibDeltaNs       int64
	macDeltas, fibDeltas         int
	publishLagNs                 int64
}

// section is the measurement of one timed section.
type section struct {
	passWall   []time.Duration
	ops        int
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
	residentB  uint64
	wall       time.Duration
	// opWall is, per pass, the sum of its operations' own wall times: the
	// pass wall without the probes a traced pass runs between operations.
	opWall []time.Duration
	// counters is the growth, inside passes only, of the registry's counters
	// and, under the registry's names for them, of the session memo's hits
	// and misses (a session's own memo is not on the registry).
	counters map[string]int64
	// probeBefore and probeAfter are the memory probe's times on either side
	// of each pass.
	probeBefore, probeAfter []time.Duration
}

// sectionRun is one instance being measured: measure drives it pass by pass.
type sectionRun struct {
	inst *instance
	rec  *recorder
	reg  *registries // nil on a plain section
	sec  section
}

func newSectionRun(inst *instance, rec *recorder, reg *registries) *sectionRun {
	return &sectionRun{inst: inst, rec: rec, reg: reg, sec: section{counters: map[string]int64{}}}
}

// pass runs one pass and the untimed step after it. Allocation counters are
// read around the pass itself, so that step is not charged to the operations.
func (x *sectionRun) pass(probe *memProbe, probeBefore time.Duration) (probeAfter time.Duration, err error) {
	inst, r, s := x.inst, x.rec, &x.sec
	var m0, m1 runtime.MemStats
	before, opsBefore := x.reg.counters(), len(r.opWall)
	memo := inst.memo
	if x.reg == nil {
		memo = nil // a plain section keeps no counters
	}
	var hits, misses int64
	if memo != nil {
		hits, misses = memo.Hits(), memo.Misses()
	}
	runtime.ReadMemStats(&m0)
	t := time.Now()
	inst.pass(r)
	s.passWall = append(s.passWall, time.Since(t))
	probeAfter = probe.run()
	s.probeBefore, s.probeAfter = append(s.probeBefore, probeBefore), append(s.probeAfter, probeAfter)
	runtime.ReadMemStats(&m1)
	s.ops += inst.opsPerPass
	s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	s.mallocs += m1.Mallocs - m0.Mallocs
	s.gcCycles += m1.NumGC - m0.NumGC
	s.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	var own time.Duration
	for _, d := range r.opWall[opsBefore:] {
		own += d
	}
	s.opWall = append(s.opWall, own)
	for k, v := range x.reg.counters() {
		s.counters[k] += v - before[k]
	}
	if memo != nil {
		s.counters["solver.satcache.hits"] += memo.Hits() - hits
		s.counters["solver.satcache.misses"] += memo.Misses() - misses
	}
	if inst.between != nil {
		if err := inst.between(); err != nil {
			return 0, fmt.Errorf("between passes: %w", err)
		}
		probeAfter = probe.run() // the next pass starts after the restore
	}
	return probeAfter, nil
}

// measure runs passes, at least one, until budget is spent. Given several
// runs it alternates between them pass by pass, so that drift of the host
// falls on all alike. The collector runs once, before the first pass, and is
// otherwise left alone; what is still on the heap after a second collection
// at the end is the resident size.
func measure(probe *memProbe, budget time.Duration, runs ...*sectionRun) error {
	runtime.GC()
	start := time.Now()
	last := probe.run()
	for p := 0; p == 0 || time.Since(start) < budget; p++ {
		for _, x := range runs {
			var err error
			if last, err = x.pass(probe, last); err != nil {
				return err
			}
		}
	}
	wall := time.Since(start)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	for _, x := range runs {
		x.sec.wall, x.sec.residentB = wall, m.HeapAlloc
	}
	return nil
}

// opMs is the time of one operation on a quiet box: per pass, wall time per
// operation divided by how slow the memory probe ran on either side of the
// pass; the median of that across passes; times the probe's quiet time.
func (s section) opMs(opsPerPass int) float64 {
	return quietTime(perOpMs(s.passWall, opsPerPass), s.probeBefore, s.probeAfter)
}

// ownOpMs is opMs over the operations' own wall times, which leaves out what
// a traced pass does between operations.
func (s section) ownOpMs(opsPerPass int) float64 {
	return quietTime(perOpMs(s.opWall, opsPerPass), s.probeBefore, s.probeAfter)
}

func perOpMs(passes []time.Duration, opsPerPass int) []float64 {
	per := make([]float64, len(passes))
	for i, w := range passes {
		per[i] = ms(w) / float64(opsPerPass)
	}
	return per
}

// quietTime scales each measured time by probeQuiet over the mean of the
// probe's times before and after it, and returns the median. The host's
// interference comes and goes over seconds and minutes, so every
// measurement is corrected by the probes nearest to it and not by one
// figure for the run; after the correction the error has no preferred
// sign, hence a median and not a low quantile.
func quietTime(xs []float64, before, after []time.Duration) float64 {
	scaled := make([]float64, len(xs))
	for i, x := range xs {
		scaled[i] = x * 2 * probeQuiet.Seconds() / (before[i] + after[i]).Seconds()
	}
	return median(scaled)
}

// registries are the two obs registries of a traced run. The compiler's
// counters are process-wide totals exposed through counter funcs, so they
// get a registry no engine code ever sees: the in-process fleet member
// would otherwise absorb the running totals into the main one every batch.
type registries struct {
	main, prog *obs.Registry
}

func newRegistries() *registries {
	r := &registries{main: obs.NewRegistry(), prog: obs.NewRegistry()}
	prog.RegisterMetrics(r.prog)
	return r
}

// counters reads every counter now (nil on an untraced run).
func (r *registries) counters() map[string]int64 {
	if r == nil {
		return nil
	}
	out := r.main.Snapshot().Counters
	for k, v := range r.prog.Snapshot().Counters {
		out[k] = v
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median interpolates between the two middle values of an even count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := unitOf(name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metricdefs.go")
	}
	m[name] = metric{Value: v, Unit: unit}
}

// perOp divides a total by the operations run (0 when none ran).
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}
