package solver

import (
	"sync"
	"sync/atomic"

	"symnet/internal/expr"
	"symnet/internal/obs"
)

// satKey identifies one memoizable satisfiability decision: the chained
// structural fingerprint of a Context's Add sequence plus the sequence
// length (cheap extra discrimination).
type satKey struct {
	Fp expr.Fp
	N  int32
}

// satVerdict is a memoized decision: the answer plus the DPLL branch count
// of the original computation, replayed on every hit so statistics stay
// identical whether a check hit or missed.
type satVerdict struct {
	Sat      bool
	Branches int
}

// SatCache memoizes satisfiability decisions across paths, workers, and
// whole queries of one process. Keys are chained structural fingerprints of
// a Context's Add sequence (see Context.Fingerprint): equal keys identify
// identical assertion sequences, which the deterministic solver maps to
// identical verdicts.
//
// Determinism: a hit must leave the same statistics trail as a recompute,
// or a batch's jobs would report different (compared) counters at different
// widths, depending on which worker warmed the cache first. Entries
// therefore record the DPLL branch count of the original computation and
// Sat replays it on hit — counters end up identical whether a given check
// hit or missed. Hit/miss telemetry lives on the cache itself, outside the
// per-run deterministic statistics.
//
// SatCache is safe for concurrent use; a nil *SatCache disables memoization.
type SatCache struct {
	shards [satShards]satShard
	hits   atomic.Int64
	misses atomic.Int64
}

const satShards = 64

type satShard struct {
	mu sync.RWMutex
	m  map[satKey]satVerdict
}

// NewSatCache returns an empty cache.
func NewSatCache() *SatCache { return &SatCache{} }

func (c *SatCache) lookup(key satKey) (satVerdict, bool) {
	sh := &c.shards[key.Fp.Hi&(satShards-1)]
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

func (c *SatCache) store(key satKey, e satVerdict) {
	sh := &c.shards[key.Fp.Hi&(satShards-1)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[satKey]satVerdict)
	}
	sh.m[key] = e
	sh.mu.Unlock()
}

// Hits reports how many lookups were answered from the cache.
func (c *SatCache) Hits() int64 { return c.hits.Load() }

// Misses reports how many lookups fell through to the solver.
func (c *SatCache) Misses() int64 { return c.misses.Load() }

// RegisterMetrics exposes the cache's telemetry counters on reg as
// snapshot-time counter funcs (solver.satcache.hits / .misses). The cache's
// own atomics stay the source of truth, so the hot path pays nothing extra
// and the live debug endpoint always sees current values. No-op when either
// receiver or registry is nil.
func (c *SatCache) RegisterMetrics(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.CounterFunc("solver.satcache.hits", c.Hits)
	reg.CounterFunc("solver.satcache.misses", c.Misses)
}

// Len reports the number of memoized decisions.
func (c *SatCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
