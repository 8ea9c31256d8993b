// Package obs is the engine's observability substrate: a dependency-free
// metrics registry (atomic counters, high-water gauges, log-bucketed latency
// histograms) plus lightweight phase spans written as JSONL, shared by the
// solver, the compiler, the scheduler, the distributed runner and the CLIs.
//
// Two properties shape the design:
//
//   - Zero cost when disabled. Every entry point is nil-safe: a nil
//     *Registry hands out nil instruments, and a nil *Counter/*Gauge/
//     *Histogram/*Tracer method call is a single predictable branch. Hot
//     paths hold pre-resolved instrument pointers (resolved once per run,
//     not per event), so a run without observability does no map lookups,
//     no clock reads, and no atomic traffic.
//
//   - Deterministic, mergeable snapshots. A Snapshot is a pure value
//     (sorted-key maps of int64) and Registry.Absorb folds one in
//     commutatively: counters and histogram buckets add, gauges take the
//     maximum. Per-worker collectors absorbed in any order therefore produce
//     identical totals, which lets distributed workers ship their snapshots
//     to the coordinator over the existing gob frames and fold them in
//     without caring about arrival order.
//
// Metrics are strictly observational: nothing in this package feeds back
// into exploration, solving, or scheduling, so enabling a registry cannot
// perturb results. The byte-identical differential suites run with metrics
// on to keep that honest.
package obs

import (
	"sync"
	"sync/atomic"
)

// SchemaVersion identifies the metrics snapshot layout. Bump it when a
// metric is renamed or its semantics change; the dist coordinator absorbs
// only snapshots of its own schema rather than folding renamed keys
// together.
const SchemaVersion = 1

// Counter is a monotonically increasing atomic counter. The nil Counter is
// a valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic level with high-water semantics: snapshots of gauges
// merge by maximum (queue depth high-water marks, per-shard wall clocks),
// so merged totals are order-independent. The nil Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current level (no-op on nil).
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n if n is higher (no-op on nil). This is the
// high-water operation; it is safe under concurrency.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// value returns the current level (zero on nil).
func (g *Gauge) value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named instruments. Instruments are created on first use
// and live for the registry's lifetime; callers resolve them once and hold
// the pointer. The nil *Registry hands out nil instruments, which is the
// disabled fast path. Registry is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// funcs are counter-valued callbacks evaluated at Snapshot time; they
	// surface counters whose source of truth lives elsewhere (the SatCache's
	// atomics, the compiler's package-global totals) without double
	// bookkeeping on the hot path. Their values land in Snapshot.Counters
	// under their own name, summing with any like-named counter. A name may
	// carry several callbacks (a benchmark pass per SatCache, say); they sum.
	funcs map[string][]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string][]func() int64),
	}
}

// Counter returns the named counter, creating it on first use (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use (nil on a
// nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers a counter-valued callback evaluated at Snapshot
// time (no-op on a nil registry). fn must be safe for concurrent use.
// Registering the same name again adds another callback; like-named
// callbacks sum, so several caches can report under one metric.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = append(r.funcs[name], fn)
}

// Snapshot captures the registry's current values as a pure, mergeable
// value (nil on a nil registry). Counter funcs are evaluated now; their
// values sum into Counters under their registered names.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Schema:   SchemaVersion,
		Counters: make(map[string]int64, len(r.counters)+len(r.funcs)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] += c.Value()
	}
	for name, fns := range r.funcs {
		for _, fn := range fns {
			s.Counters[name] += fn()
		}
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.value()
	}
	for name, h := range r.hists {
		s.Hists[name] = h.snapshot()
	}
	return s
}

// Absorb folds a snapshot (typically a worker process's) into the
// registry's live instruments: counters add, gauges raise high-water marks,
// histogram buckets add. A later Registry.Snapshot then reports the
// combined totals. Absorbing into instruments rather than keeping side
// tables means the live debug endpoint (expvar) sees remote work too.
// No-op on a nil registry or nil snapshot.
func (r *Registry) Absorb(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	for name, v := range s.Counters {
		// Funcs re-evaluate locally; a remote func value must land in a
		// plain counter or it would be lost.
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).SetMax(v)
	}
	for name, hs := range s.Hists {
		r.Histogram(name).addSnapshot(hs)
	}
}

// Snapshot is a point-in-time capture of a registry: schema-versioned maps
// of instrument name to value. It is a pure value safe to serialize (JSON
// keys sort deterministically; gob carries it across the dist frames) and
// to merge.
type Snapshot struct {
	Schema   int                     `json:"schema"`
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
}
