package core

import (
	"fmt"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/obs"
	"symnet/internal/prog"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// This file is the shardable heart of the engine. Exploration splits a run
// into Tasks — one port-visit step of one state — that are pure with respect
// to everything except the task's own state, so independent tasks can run on
// any goroutine in any order. Determinism is re-imposed at the merge:
//
//   - every task carries a sequence number assigned in frontier order, and
//     fresh symbols allocated while stepping it come from the band
//     [seq<<expr.BandBits, (seq+1)<<expr.BandBits), so symbol IDs do not
//     depend on worker interleaving;
//   - finished paths receive their IDs in Merge, which walks task results in
//     wave order;
//   - statistics are counter sums, which commute.
//
// A sequential run (core.Run) and a parallel run (internal/sched) drive the
// same Frontier/RunTask/Merge cycle, so they produce identical Results by
// construction.

// Task is one schedulable unit of exploration: the injection step (init
// non-nil, carrying the injection code to run on st) or one port-visit step
// of a state.
type Task struct {
	seq  int64
	st   *State
	init sefl.Instr // injection code (injection task only)
}

// TaskResult is everything stepping one task produced. Values are merged
// back into the Exploration in frontier order by Merge.
type TaskResult struct {
	finished []*State // completed paths, canonical order
	next     []*State // successor states, canonical order
	err      error
	pruned   int
	hops     int
	solver   solver.Stats
	alloc    *expr.Alloc // per-task allocator, for diagnostic names
}

// maxWave bounds how many tasks one wave may contain. Waves are taken from
// the tail of the pending-task queue, so exploration is depth-first in
// blocks: peak live-state memory stays near the classic DFS engine's
// O(depth x branching) plus one wave, instead of materializing the full
// breadth-first frontier, and a run that explodes overshoots the MaxPaths
// budget by at most one wave of steps. The constant is part of the
// canonical exploration order — every driver goes through Frontier(), so
// path IDs are identical for any worker count.
const maxWave = 1024

// Exploration is an in-progress run decomposed into waves of tasks. The
// Frontier/RunTask/Merge methods form the driver loop:
//
//	e, err := NewExploration(net, inject, init, opts)
//	for !e.Done() {
//		tasks := e.Frontier()
//		results := make([]TaskResult, len(tasks))
//		for i, t := range tasks { // or in parallel, any order
//			results[i] = e.RunTask(t)
//		}
//		if err := e.Merge(results); err != nil { ... }
//	}
//	res := e.Finish()
//
// RunTask is safe to call concurrently for distinct tasks of the same wave;
// all other methods must be called from a single driver goroutine.
type Exploration struct {
	net     *Network
	opts    Options
	inject  *Element
	injProg *prog.Program // compiled injection code (nil under ASTInterp)
	satMemo *solver.SatCache
	queue   []*Task // pending tasks; waves are cut from the tail
	nextSeq int64
	paths   []*Path
	stats   RunStats
	names   *expr.Alloc
	err     error
	inst    instruments
}

// instruments are an exploration's telemetry instruments, resolved once
// and shared by pointer with every task's run. All are nil when Options.Obs
// carries no registry — the disabled fast path: the hot path pays one branch
// and no map lookups (see internal/obs).
type instruments struct {
	progHits   *obs.Counter   // core.progcache.hits: compiled-program cache hits
	progMisses *obs.Counter   // core.progcache.misses: port programs compiled
	queueDepth *obs.Gauge     // core.queue.depth.max: pending-task high-water
	satNs      *obs.Histogram // solver.sat.check_ns: per-Sat-check wall time
	// Summary-layer instruments (see execPort): build outcomes, per-visit
	// path taken, and the apply-vs-exec timing pair the summaries experiment
	// compares (prog.exec_ns times every IR-path visit — the fallback
	// elements by default, all of them under Options.IRExec).
	sumBuilt     *obs.Counter   // summary.built: programs summarized
	sumUnsum     *obs.Counter   // summary.unsummarizable: fallback verdicts
	sumHits      *obs.Counter   // summary.hits: visits applied via summary
	sumFallbacks *obs.Counter   // summary.fallbacks: visits on the IR path
	sumApplyNs   *obs.Histogram // summary.apply_ns: per-visit summary apply
	progExecNs   *obs.Histogram // prog.exec_ns: per-visit IR execution
	elemHits     *elemHits      // summary.elem_hits.<elem>: per-element applies (atomic counters)
}

// NewExploration validates the injection point and prepares the first wave
// (the injection task).
func NewExploration(net *Network, inject PortRef, init sefl.Instr, opts Options) (*Exploration, error) {
	opts = opts.withDefaults()
	elem, ok := net.Element(inject.Elem)
	if !ok {
		return nil, fmt.Errorf("core: inject element %q not found", inject.Elem)
	}
	if inject.Out || inject.Port < 0 || inject.Port >= elem.NumIn {
		return nil, fmt.Errorf("core: inject port %s invalid", inject)
	}
	memo := opts.SatMemo
	if memo == nil {
		memo = solver.NewSatCache()
	}
	e := &Exploration{
		net:     net,
		opts:    opts,
		inject:  elem,
		satMemo: memo,
		names:   &expr.Alloc{},
	}
	if opts.Obs != nil && opts.Obs.Reg != nil {
		reg := opts.Obs.Reg
		e.inst = instruments{
			progHits:     reg.Counter("core.progcache.hits"),
			progMisses:   reg.Counter("core.progcache.misses"),
			queueDepth:   reg.Gauge("core.queue.depth.max"),
			satNs:        reg.Histogram("solver.sat.check_ns"),
			sumBuilt:     reg.Counter("summary.built"),
			sumUnsum:     reg.Counter("summary.unsummarizable"),
			sumHits:      reg.Counter("summary.hits"),
			sumFallbacks: reg.Counter("summary.fallbacks"),
			sumApplyNs:   reg.Histogram("summary.apply_ns"),
			progExecNs:   reg.Histogram("prog.exec_ns"),
			elemHits:     &elemHits{reg: reg},
		}
	}
	if !opts.ASTInterp && init != nil {
		// Injection code runs once per exploration but compiles in
		// microseconds; compiling keeps every instruction on the one
		// (compiled) execution path.
		e.injProg = prog.Compile(init, elem.Name, elem.Instance, elem.Name+".inject")
	}
	st := &State{
		Mem:     memory.New(),
		Here:    PortRef{Elem: inject.Elem, Port: inject.Port},
		seen:    newSeen(),
		traceOn: opts.Trace,
	}
	e.queue = []*Task{{seq: 0, st: st, init: init}}
	e.nextSeq = 1
	return e, nil
}

// Done reports whether the run has finished (no tasks left, or aborted).
func (e *Exploration) Done() bool { return e.err != nil || len(e.queue) == 0 }

// Frontier removes and returns the next wave: up to maxWave tasks from the
// tail of the pending queue. The caller must step every task and hand Merge
// a results slice aligned with the returned one.
func (e *Exploration) Frontier() []*Task {
	k := len(e.queue) - maxWave
	if k < 0 {
		k = 0
	}
	wave := append([]*Task(nil), e.queue[k:]...)
	e.queue = e.queue[:k]
	return wave
}

// RunTask steps one task. It reads only immutable run configuration and the
// task's own state, so distinct tasks may be stepped concurrently.
func (e *Exploration) RunTask(t *Task) TaskResult {
	stats := &solver.Stats{}
	r := &run{
		net:   e.net,
		opts:  &e.opts,
		alloc: expr.NewAllocBand(t.seq),
		stats: stats,
		memo:  e.satMemo,
		inst:  &e.inst,
	}
	r.env.r = r
	var res TaskResult
	if t.init != nil {
		res.next = r.runInjection(t.st, e.inject, t.init, e.injProg)
	} else {
		t.st.Ctx.SetStats(stats)
		res.next, res.err = r.step(t.st)
		res.hops = 1
	}
	res.finished = r.finished
	res.pruned = r.pruned
	res.solver = *stats
	res.alloc = r.alloc
	return res
}

// runInjection builds the symbolic packet: injection code runs in the
// context of the target element (so local metadata in templates scopes
// sensibly) before the packet enters the port.
func (r *run) runInjection(st *State, elem *Element, init sefl.Instr, injProg *prog.Program) []*State {
	st.Ctx = solver.NewContext(r.stats)
	st.Ctx.SetCache(r.memo)
	// Clones inherit the histogram, so every path of the run reports its Sat
	// latencies (no-op when telemetry is off).
	st.Ctx.SetSatHistogram(r.inst.satNs)
	var states []*State
	if injProg != nil {
		states = r.runProgram(st, injProg)
	} else {
		states = r.exec(st, elem, init)
	}
	var next []*State
	for _, s := range states {
		if s.Status == Failed {
			r.finish(s)
			continue
		}
		if s.forwarding() {
			r.finish(failWith(s, "injection code must not forward"))
			continue
		}
		next = append(next, s)
	}
	return next
}

// Merge folds one wave of results — aligned with the slice Frontier
// returned — back into the run and builds the next frontier. It returns the
// first error in frontier order (deterministic regardless of which worker
// hit it); a non-nil error aborts the run.
func (e *Exploration) Merge(results []TaskResult) error {
	if e.err != nil {
		return e.err
	}
	for i := range results {
		res := &results[i]
		if res.err != nil {
			e.err = res.err
			return e.err
		}
		for _, st := range res.finished {
			e.appendPath(st)
		}
		e.stats.Pruned += res.pruned
		e.stats.Hops += res.hops
		e.stats.Symbols += res.alloc.Count()
		e.stats.Solver.Add(res.solver)
		if e.opts.Stats != nil {
			// Fold into the caller's collector wave by wave, so a run
			// that aborts mid-way still reports the solver work it did
			// (matching the old engine's live accumulation).
			e.opts.Stats.Add(res.solver)
		}
		e.names.MergeNames(res.alloc)
		for _, st := range res.next {
			e.queue = append(e.queue, &Task{seq: e.nextSeq, st: st})
			e.nextSeq++
		}
		if len(e.paths) > e.opts.MaxPaths {
			e.err = fmt.Errorf("core: path budget exceeded (%d)", e.opts.MaxPaths)
			return e.err
		}
	}
	e.inst.queueDepth.SetMax(int64(len(e.queue)))
	return nil
}

// appendPath finalizes a completed state as the next path in canonical
// order.
func (e *Exploration) appendPath(st *State) {
	p := &Path{
		ID:      len(e.paths),
		Status:  st.Status,
		FailMsg: st.FailMsg,
		hist:    st.hist,
		Trace:   st.trace.slice(),
		Mem:     st.Mem,
		Ctx:     st.Ctx,
	}
	e.paths = append(e.paths, p)
	e.stats.Paths++
	switch st.Status {
	case Delivered:
		e.stats.Delivered++
	case Failed:
		e.stats.Failed++
	case Looped:
		e.stats.Looped++
	}
}

// Finish assembles the Result. Call only after Done with no error.
//
// When the caller supplied a Stats collector, every finished path's context
// is rebound to it, so post-run follow-up queries (verify domain reads,
// conformance Model calls) keep counting toward the caller's "time spent in
// and calls to the solver" totals, as in the original engine. Result.Stats
// itself is already final and unaffected.
func (e *Exploration) Finish() *Result {
	if e.opts.Stats != nil {
		for _, p := range e.paths {
			p.Ctx.SetStats(e.opts.Stats)
		}
	}
	// The result allocator starts past every band the run handed out, so
	// callers minting follow-up symbols (extra query constraints) cannot
	// collide with the run's own, and its Count tracks only those follow-up
	// symbols (the run's total is Stats.Symbols).
	alloc := expr.NewAllocAt(expr.SymID(e.nextSeq) << expr.BandBits)
	alloc.MergeNames(e.names)
	return &Result{Paths: e.paths, Stats: e.stats, Alloc: alloc}
}
