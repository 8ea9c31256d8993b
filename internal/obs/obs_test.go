package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every instrument and entry point must be a no-op on nil —
// the disabled fast path the engine relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	g := r.Gauge("x")
	g.Set(3)
	g.SetMax(9)
	if g.value() != 0 {
		t.Fatal("nil gauge moved")
	}
	h := r.Histogram("x")
	h.Observe(7)
	if d := h.Start().Stop(); d != 0 {
		t.Fatal("nil histogram timer measured")
	}
	if hs := h.snapshot(); hs.Count != 0 {
		t.Fatal("nil histogram snapshot non-empty")
	}
	r.CounterFunc("f", func() int64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}
	r.Absorb(&Snapshot{Schema: SchemaVersion})

	var trc *Tracer
	trc.Emit(Span{Phase: "x"})
	var o *Obs
	if o.Enabled() {
		t.Fatal("nil Obs enabled")
	}
	o.Span("explore", "x", 0)() // must not panic
}

// TestRegistryBasics: counters add, gauges high-water, funcs sum into
// counters at snapshot time, histograms bucket.
func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Counter("a").Inc()
	r.Gauge("g").SetMax(10)
	r.Gauge("g").SetMax(4) // lower: must not regress
	r.CounterFunc("a", func() int64 { return 5 })
	r.Histogram("h").Observe(1000)
	r.Histogram("h").Observe(1)

	s := r.Snapshot()
	if s.Schema != SchemaVersion {
		t.Fatalf("schema = %d", s.Schema)
	}
	if s.Counters["a"] != 8 { // 3 counted + 5 from the func
		t.Fatalf("counter a = %d, want 8", s.Counters["a"])
	}
	if s.Gauges["g"] != 10 {
		t.Fatalf("gauge g = %d, want 10", s.Gauges["g"])
	}
	hs := s.Hists["h"]
	if hs.Count != 2 || hs.Sum != 1001 {
		t.Fatalf("hist = %+v", hs)
	}
}

// TestHistogramBuckets: the log2 bucket rule 2^(i-1) <= v < 2^i.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1023, 1024} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1, 11: 1}
	for b, n := range want {
		if s.Buckets[b] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", b, s.Buckets[b], n, s.Buckets)
		}
	}
	if s.Count != 7 || s.Sum != 1+2+3+4+1023+1024 {
		t.Fatalf("count %d sum %d", s.Count, s.Sum)
	}
}

// TestSnapshotAbsorbDeterminism is the merge-determinism property: N
// per-worker snapshots absorbed into a registry in every permutation
// produce identical totals.
func TestSnapshotAbsorbDeterminism(t *testing.T) {
	// Deterministic pseudo-random snapshot set, no seed plumbing needed.
	mk := func(worker int) *Snapshot {
		r := NewRegistry()
		x := uint64(worker*2654435761 + 12345)
		next := func() int64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int64(x % 100000)
		}
		names := []string{"solver.satcache.hits", "dist.frame.bytes_out", "core.progcache.hits"}
		for _, n := range names {
			r.Counter(n).Add(next())
		}
		r.Gauge("core.queue.depth.max").SetMax(next())
		r.Gauge("dist.shard.wall_ns").SetMax(next())
		for i := 0; i < 50; i++ {
			r.Histogram("sched.task_ns").Observe(next())
			r.Histogram(fmt.Sprintf("sched.w%d.task_ns", worker%3)).Observe(next())
		}
		return r.Snapshot()
	}
	workers := []*Snapshot{mk(0), mk(1), mk(2), mk(3)}

	mergeAll := func(order []int) string {
		total := NewRegistry()
		for _, i := range order {
			total.Absorb(workers[i])
		}
		b, err := json.Marshal(total.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	ref := mergeAll([]int{0, 1, 2, 3})
	var permute func(cur, rest []int)
	permute = func(cur, rest []int) {
		if len(rest) == 0 {
			if got := mergeAll(cur); got != ref {
				t.Fatalf("merge order %v diverged:\n%s\nvs reference\n%s", cur, got, ref)
			}
			return
		}
		for i := range rest {
			nr := append(append([]int{}, rest[:i]...), rest[i+1:]...)
			permute(append(cur, rest[i]), nr)
		}
	}
	permute(nil, []int{0, 1, 2, 3})
}

// TestConcurrentInstruments: racing writers over shared instruments keep
// exact totals (run under -race in CI).
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").SetMax(int64(i))
				r.Histogram("h").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 8000 {
		t.Fatalf("counter = %d, want 8000", s.Counters["c"])
	}
	if s.Gauges["g"] != 999 {
		t.Fatalf("gauge high-water = %d, want 999", s.Gauges["g"])
	}
	if s.Hists["h"].Count != 8000 {
		t.Fatalf("hist count = %d, want 8000", s.Hists["h"].Count)
	}
}

// TestTracerJSONL: spans come out one JSON object per line with the
// expected fields, concurrently emitted without interleaving.
func TestTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	trc := NewTracer(&buf)
	o := New(nil, trc)
	o.Shard = 2
	done := o.Span("job", "a->b", 3)
	time.Sleep(time.Millisecond)
	done()
	trc.Emit(Span{Phase: "worker", Worker: -1, Shard: 0, Start: 42, Dur: 7})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var s Span
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Phase != "job" || s.Name != "a->b" || s.Worker != 3 || s.Shard != 2 || s.Dur <= 0 || s.Start == 0 {
		t.Fatalf("span = %+v", s)
	}
}

// TestSpanHistogram: a registry-only Obs still accumulates phase wall time.
func TestSpanHistogram(t *testing.T) {
	r := NewRegistry()
	o := New(r, nil)
	o.Span("merge", "", -1)()
	s := r.Snapshot()
	if s.Hists["phase.merge_ns"].Count != 1 {
		t.Fatalf("phase histogram missing: %v", s.Hists)
	}
}

// TestServeDebug: the debug server exposes the live registry under
// /debug/vars and the pprof index responds.
func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("solver.satcache.hits").Add(17)
	addr, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, "symnet_metrics") || !strings.Contains(vars, "solver.satcache.hits") {
		t.Fatalf("/debug/vars lacks metrics: %s", vars)
	}
	if !strings.Contains(get("/debug/pprof/cmdline"), "") {
		t.Fatal("unreachable")
	}
}
