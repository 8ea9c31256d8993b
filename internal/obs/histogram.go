package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count: bucket i holds observations whose
// value v (in nanoseconds for latency histograms) satisfies
// 2^(i-1) <= v < 2^i, with bucket 0 holding v <= 0..1. 64 buckets cover the
// whole int64 range, so no observation is ever clipped.
const histBuckets = 64

// Histogram is a log2-bucketed distribution of int64 observations
// (latencies in nanoseconds, sizes in bytes). Buckets are atomics, so
// concurrent Observe calls need no lock; snapshots are mergeable by bucket
// addition, which keeps per-worker histograms combinable in any order. The
// nil Histogram is a valid no-op instrument.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	b     [histBuckets]atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.b[bucketOf(v)].Add(1)
}

// Timer is an in-flight duration measurement. The zero Timer (from a nil
// histogram) is a no-op whose Stop does not read the clock.
type Timer struct {
	h  *Histogram
	t0 time.Time
}

// Start begins timing an operation. On a nil histogram it returns the zero
// Timer without reading the clock — the disabled path costs one branch.
func (h *Histogram) Start() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, t0: time.Now()}
}

// Stop records the elapsed time since Start and returns it (zero for the
// no-op Timer).
func (t Timer) Stop() time.Duration {
	if t.h == nil {
		return 0
	}
	d := time.Since(t.t0)
	t.h.Observe(d.Nanoseconds())
	return d
}

// snapshot captures the histogram's current state (zero value on nil). The
// capture is not atomic across buckets — concurrent Observe calls may land
// half-in — which is fine for telemetry: totals are exact once writers
// quiesce, and merge determinism is over captured values.
func (h *Histogram) snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.b {
		if n := h.b[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64)
			}
			s.Buckets[i] = n
		}
	}
	return s
}

// addSnapshot folds a captured snapshot into the live histogram (the
// coordinator absorbing a worker's buckets). No-op on nil.
func (h *Histogram) addSnapshot(s HistSnapshot) {
	if h == nil {
		return
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	for i, n := range s.Buckets {
		if i >= 0 && i < histBuckets {
			h.b[i].Add(n)
		}
	}
}

// HistSnapshot is the pure-value face of a histogram: total count, total
// sum, and the non-empty log2 buckets (bucket index -> count; JSON encodes
// integer keys as sorted strings, so encodings are deterministic).
type HistSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets map[int]int64 `json:"buckets,omitempty"`
}
