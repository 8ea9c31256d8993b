package solver

import (
	"sync"
	"testing"

	"symnet/internal/expr"
	"symnet/internal/obs"
)

// pendingCtx builds a context with a branching (pending-Or) workload so Sat
// actually exercises the DPLL path. cache may be nil.
func pendingCtx(stats *Stats, cache *SatCache) *Context {
	c := NewContext(stats)
	c.SetCache(cache)
	x := expr.Lin{Sym: 0, Width: 8}
	y := expr.Lin{Sym: 1, Width: 8}
	c.Add(expr.NewCmp(expr.Le, x, expr.Const(20, 8)))
	c.Add(expr.NewOr(
		expr.NewCmp(expr.Eq, x, y),
		expr.NewCmp(expr.Eq, x, expr.Lin{Sym: 1, Add: 3, Width: 8}),
	))
	c.Add(expr.NewCmp(expr.Ne, x, y))
	return c
}

// TestSatCacheDeterministicStats: a cached Sat decision must leave exactly
// the statistics trail the original computation left, so cache warmth can
// never make parallel runs diverge from sequential ones.
func TestSatCacheDeterministicStats(t *testing.T) {
	var cold Stats
	cc := pendingCtx(&cold, nil)
	want := cc.Sat()

	cache := NewSatCache()
	var first, second Stats
	c1 := pendingCtx(&first, cache)
	if got := c1.Sat(); got != want {
		t.Fatalf("miss path Sat=%v want %v", got, want)
	}
	c2 := pendingCtx(&second, cache)
	if got := c2.Sat(); got != want {
		t.Fatalf("hit path Sat=%v want %v", got, want)
	}
	if first != cold {
		t.Fatalf("miss stats %+v differ from cache-off stats %+v", first, cold)
	}
	if second != cold {
		t.Fatalf("hit stats %+v differ from cache-off stats %+v (branch replay broken)", second, cold)
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", cache.Hits(), cache.Misses())
	}
	if cache.Len() != 1 {
		t.Fatalf("Len=%d want 1", cache.Len())
	}

	// Cache telemetry stays out of the live stats (it depends on warmth, so
	// counting it during a run would break determinism); AddCache folds it in
	// at the reporting boundary only.
	if second.CacheHits != 0 || second.CacheMisses != 0 {
		t.Fatalf("live stats carry cache telemetry: %+v", second)
	}
	second.AddCache(cache)
	if second.CacheHits != 1 || second.CacheMisses != 1 {
		t.Fatalf("AddCache fold: hits=%d misses=%d, want 1/1", second.CacheHits, second.CacheMisses)
	}
	second.AddCache(nil) // nil cache is a no-op
	if second.CacheHits != 1 {
		t.Fatalf("AddCache(nil) moved stats: %+v", second)
	}
}

// TestSatCacheKeysOnSequence: contexts with different assertion sequences
// must not collide in the cache.
func TestSatCacheKeysOnSequence(t *testing.T) {
	cache := NewSatCache()
	x := expr.Lin{Sym: 0, Width: 8}
	a := NewContext(nil)
	a.SetCache(cache)
	a.Add(expr.NewCmp(expr.Eq, x, expr.Const(1, 8)))
	if !a.Sat() {
		t.Fatal("a must be sat")
	}
	b := NewContext(nil)
	b.SetCache(cache)
	b.Add(expr.NewCmp(expr.Eq, x, expr.Const(1, 8)))
	b.Add(expr.NewCmp(expr.Eq, x, expr.Const(2, 8)))
	if b.Sat() {
		t.Fatal("b must be unsat")
	}
	// Re-issuing a's exact sequence hits and stays sat.
	c := NewContext(nil)
	c.SetCache(cache)
	c.Add(expr.NewCmp(expr.Eq, x, expr.Const(1, 8)))
	if !c.Sat() {
		t.Fatal("c must be sat (cache must key on the full sequence)")
	}
}

// TestSatCacheConcurrent hammers one cache from many goroutines issuing a
// mix of distinct and repeated queries (run under -race).
func TestSatCacheConcurrent(t *testing.T) {
	cache := NewSatCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := expr.Lin{Sym: 0, Width: 8}
			for i := 0; i < 200; i++ {
				c := NewContext(nil)
				c.SetCache(cache)
				c.Add(expr.NewCmp(expr.Le, x, expr.Const(uint64(i%10)+5, 8)))
				c.Add(expr.NewCmp(expr.Ge, x, expr.Const(uint64(i%3), 8)))
				if !c.Sat() {
					t.Error("query must be satisfiable")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cache.Hits() == 0 {
		t.Fatal("expected cache hits across goroutines")
	}
}

// TestSatCacheRegisterMetrics: the cache's counters surface through an obs
// registry as snapshot-time funcs reflecting live values.
func TestSatCacheRegisterMetrics(t *testing.T) {
	cache := NewSatCache()
	reg := obs.NewRegistry()
	cache.RegisterMetrics(reg)

	var s1, s2 Stats
	pendingCtx(&s1, cache).Sat()
	pendingCtx(&s2, cache).Sat()

	snap := reg.Snapshot()
	if snap.Counters["solver.satcache.hits"] != 1 || snap.Counters["solver.satcache.misses"] != 1 {
		t.Fatalf("registry counters = %v, want hits=1 misses=1", snap.Counters)
	}

	// Nil receiver and nil registry are both no-ops.
	var nilCache *SatCache
	nilCache.RegisterMetrics(reg)
	cache.RegisterMetrics(nil)
}
