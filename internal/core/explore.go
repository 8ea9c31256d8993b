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

// This file is Run's driver loop. A run is a queue of tasks — the injection
// step, then one port-visit step per state — stepped in a canonical order
// that fixes every ID a Result carries:
//
//   - tasks are stepped in waves of at most maxWave, cut from the tail of
//     the pending queue, each wave in order; the wave is a copy, so the
//     successors it queues take the slots it vacated;
//   - every task carries a sequence number assigned when it is queued, and
//     the fresh symbols minted while stepping it come from the band
//     [seq<<expr.BandBits, (seq+1)<<expr.BandBits);
//   - a task's finished paths receive their IDs when the task is merged,
//     right after it is stepped.
//
// Changing the wave size or the bands renumbers the symbols and paths of
// every Result (the golden digests in internal/sched pin them), so both stay
// until a change that needs a new baseline anyway.

// task is one unit of exploration: the injection step (init non-nil,
// carrying the injection code to run on st) or one port-visit step of a
// state.
type task struct {
	seq  int64
	st   *state
	init sefl.Instr // injection code (injection task only)
}

// maxWave bounds how many tasks one wave may contain. Waves are taken from
// the tail of the pending-task queue, so exploration is depth-first in
// blocks: peak live-state memory stays near the classic DFS engine's
// O(depth x branching) plus one wave, instead of materializing the full
// breadth-first frontier.
const maxWave = 1024

// exploration is one Run in progress. Its task scaffolding lives as long as
// the exploration, not the task: one run steps every task in turn, tasks are
// queued by value, and the wave buffer is reused.
type exploration struct {
	opts    Options
	inject  *Element
	injProg *prog.Program // compiled injection code (nil under ASTInterp)
	queue   []task        // pending tasks; waves are cut from the tail
	wave    []task        // the wave being stepped (see frontier)
	nextSeq int64
	paths   []*Path
	stats   RunStats
	inst    instruments
	r       run
}

// instruments are an exploration's telemetry instruments, resolved once
// and shared by pointer with its run. All are nil when Options.Obs
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
	elemHits     *elemHits      // summary.elem_hits.<elem>: per-element applies
}

// newExploration validates the injection point and queues the injection
// task.
func newExploration(net *Network, inject PortRef, init sefl.Instr, opts Options) (*exploration, error) {
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
	e := &exploration{opts: opts, inject: elem}
	// The collector is allocated on its own because every path's context
	// points at it: inside the exploration, it would keep the queue and the
	// wave reachable from the Result.
	e.r = run{net: net, opts: &e.opts, stats: &solver.Stats{}, memo: memo, inst: &e.inst}
	e.r.env.r = &e.r
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
			elemHits:     &elemHits{reg: reg, m: make(map[string]*obs.Counter)},
		}
	}
	if !opts.ASTInterp && init != nil {
		// Injection code runs once per exploration but compiles in
		// microseconds; compiling keeps every instruction on the one
		// (compiled) execution path.
		e.injProg = prog.Compile(init, elem.Name, elem.Instance, elem.Name+".inject")
	}
	st := &state{
		Mem:     memory.New(),
		Here:    PortRef{Elem: inject.Elem, Port: inject.Port},
		seen:    newSeen(),
		traceOn: opts.Trace,
	}
	e.queue = []task{{seq: 0, st: st, init: init}}
	e.nextSeq = 1
	return e, nil
}

// explore steps waves until no task is left.
func (e *exploration) explore() (*Result, error) {
	for len(e.queue) > 0 {
		wave := e.frontier()
		for i := range wave {
			if err := e.stepTask(&wave[i]); err != nil {
				return nil, err
			}
		}
		e.inst.queueDepth.SetMax(int64(len(e.queue)))
	}
	return e.finish(), nil
}

// frontier removes and returns the next wave: up to maxWave tasks from the
// tail of the pending queue. The wave is a copy, into a buffer reused from
// wave to wave, because stepping it queues successors into the slots it
// vacated.
func (e *exploration) frontier() []task {
	k := max(len(e.queue)-maxWave, 0)
	e.wave = append(e.wave[:0], e.queue[k:]...)
	e.queue = e.queue[:k]
	return e.wave
}

// stepTask steps one task and merges what it produced: its finished paths
// take the next IDs, its successors are queued behind the current wave, and
// its statistics are folded into the run's. A
// step error, or a path count past MaxPaths, aborts the run; the failing
// task's statistics are not folded.
func (e *exploration) stepTask(t *task) error {
	r := &e.r
	r.alloc.ResetBand(t.seq)
	*r.stats = solver.Stats{}
	r.finished = r.finished[:0]
	r.pruned = 0
	next := r.next[:0]
	if t.init != nil {
		next = r.runInjection(next, t.st, e.inject, t.init, e.injProg)
	} else {
		var err error
		if next, err = r.step(next, t.st); err != nil {
			return err
		}
		e.stats.Hops++
	}
	for _, st := range r.finished {
		e.appendPath(st)
	}
	e.stats.Pruned += r.pruned
	e.stats.Symbols += r.alloc.Count()
	e.stats.Solver.Add(*r.stats)
	for _, st := range next {
		e.queue = append(e.queue, task{seq: e.nextSeq, st: st})
		e.nextSeq++
	}
	r.next = next
	if len(e.paths) > e.opts.MaxPaths {
		return fmt.Errorf("core: path budget exceeded (%d)", e.opts.MaxPaths)
	}
	return nil
}

// runInjection builds the symbolic packet: injection code runs in the
// context of the target element (so local metadata in templates scopes
// sensibly) before the packet enters the port.
func (r *run) runInjection(next []*state, st *state, elem *Element, init sefl.Instr, injProg *prog.Program) []*state {
	st.Ctx = solver.NewContext(r.stats)
	st.Ctx.SetCache(r.memo)
	// Clones inherit the histogram, so every path of the run reports its Sat
	// latencies (no-op when telemetry is off).
	st.Ctx.SetSatHistogram(r.inst.satNs)
	var states []*state
	if injProg != nil {
		states = r.runProgram(st, injProg)
	} else {
		states = r.exec(st, elem, init)
	}
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

// appendPath finalizes a completed state as the next path in canonical
// order.
func (e *exploration) appendPath(st *state) {
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

// finish assembles the Result of a run that ran out of tasks.
func (e *exploration) finish() *Result {
	// The result allocator starts past every band the run handed out, so
	// callers minting follow-up symbols (extra query constraints) cannot
	// collide with the run's own, and its Count tracks only those follow-up
	// symbols (the run's total is Stats.Symbols).
	alloc := expr.NewAllocAt(expr.SymID(e.nextSeq) << expr.BandBits)
	return &Result{Paths: e.paths, Stats: e.stats, Alloc: alloc}
}
