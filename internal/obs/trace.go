package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one completed phase of work: one verification job, one fleet
// batch, a fleet member's connection. Spans are written as one JSON object
// per line (JSONL), the shape flame-graph and trace-viewer tooling ingests
// directly: sort by Start, group by Worker/Shard, stack by Phase.
type Span struct {
	// Phase names the kind of work: job (one sched job), dispatch (one
	// fleet batch), solve (one all-pairs run), worker (a fleet member's
	// connection) or explore (symnet's query).
	Phase string `json:"phase"`
	// Name identifies the unit within the phase (job name, injection
	// point, member status), when one exists.
	Name string `json:"name,omitempty"`
	// Worker is the executing pool worker slot, -1 when not applicable.
	Worker int `json:"worker"`
	// Shard is the distributed shard (worker process) index, -1 for
	// in-process work.
	Shard int `json:"shard"`
	// Start is the span's start time in nanoseconds since the Unix epoch.
	Start int64 `json:"start_ns"`
	// Dur is the span's duration in nanoseconds.
	Dur int64 `json:"dur_ns"`
}

// Tracer serializes spans to a writer as JSONL. Emit is safe for concurrent
// use (one span per line, never interleaved); the nil Tracer is a valid
// no-op, which is the disabled fast path.
type Tracer struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewTracer returns a tracer writing JSONL spans to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{enc: json.NewEncoder(w)}
}

// Emit writes one span (no-op on nil). Encoding errors are dropped: tracing
// must never fail a run.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.enc.Encode(s) //nolint:errcheck // best-effort telemetry
	t.mu.Unlock()
}

// Obs bundles the two observability sinks a run writes to — the metrics
// registry and the span tracer — plus the shard label stamped on spans
// (distributed workers run with their shard index; in-process runs use -1).
// A nil *Obs, or an Obs with both sinks nil, disables instrumentation; the
// Enabled check is one branch.
type Obs struct {
	Reg *Registry
	Trc *Tracer
	// Shard labels spans emitted under this Obs (-0 is a valid shard, so
	// in-process runs set -1 explicitly via New).
	Shard int
}

// New returns an Obs over the given sinks with the in-process shard label.
// Either sink may be nil.
func New(reg *Registry, trc *Tracer) *Obs {
	return &Obs{Reg: reg, Trc: trc, Shard: -1}
}

// Enabled reports whether any sink is attached.
func (o *Obs) Enabled() bool { return o != nil && (o.Reg != nil || o.Trc != nil) }

// Span starts a phase span attributed to a worker slot and returns its
// finisher. The duration lands in the registry's "phase.<phase>_ns"
// histogram and, when a tracer is attached, as one JSONL record. On a
// disabled Obs it returns a shared no-op finisher without reading the
// clock.
func (o *Obs) Span(phase, name string, worker int) func() {
	if !o.Enabled() {
		return nopFinish
	}
	var h *Histogram
	if o.Reg != nil {
		h = o.Reg.Histogram("phase." + phase + "_ns")
	}
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		h.Observe(d.Nanoseconds())
		if o.Trc != nil {
			o.Trc.Emit(Span{
				Phase:  phase,
				Name:   name,
				Worker: worker,
				Shard:  o.Shard,
				Start:  t0.UnixNano(),
				Dur:    d.Nanoseconds(),
			})
		}
	}
}

// nopFinish is the shared disabled finisher, so disabled spans allocate
// nothing.
var nopFinish = func() {}
