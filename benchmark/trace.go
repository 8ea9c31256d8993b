package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call from the harness into a layer's public function.
// Spans are recorded only in this package, around the call sites: the
// engine's own obs spans are a separate mechanism and are not mixed in.
type span struct {
	Name string `json:"name"`
	// ID is 1-based; Parent 0 marks a root span.
	ID     int `json:"id"`
	Parent int `json:"parent"`
	// Op is the 1-based operation the span belongs to, shared by every span
	// of that operation; 0 marks set-up work.
	Op int `json:"op"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end return at once without reading the clock.
// Only the measuring goroutine records spans, so there is no lock.
type tracer struct {
	t0    time.Time
	spans []span
	op    int
	// scope is the open root that work outside operations hangs under: the
	// "setup" span during set-up, the "finish" span during the end checks.
	scope int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation and returns its id.
func (t *tracer) nextOp() int {
	if t == nil {
		return 0
	}
	t.op++
	return t.op
}

// enter opens a root span for work outside operations and makes it the
// scope; the caller ends it with end.
func (t *tracer) enter(name string) int {
	if t == nil {
		return 0
	}
	t.scope = t.begin(name, 0, 0)
	return t.scope
}

// under is the root that a span outside any operation belongs under.
func (t *tracer) under() int {
	if t == nil {
		return 0
	}
	return t.scope
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans) + 1, Parent: parent, Op: op,
		Start: time.Since(t.t0).Nanoseconds(), End: -1,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// stage runs fn inside a span named name.
func (t *tracer) stage(name string, parent, op int, fn func() error) error {
	id := t.begin(name, parent, op)
	err := fn()
	t.end(id)
	return err
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// stageSumRatio is, over every "op" root span, the time its direct children
// cover divided by the op's own duration: 1 when the traced stages account
// for the whole operation.
func stageSumRatio(spans []span) float64 {
	self := selfTimes(spans)
	var total, covered int64
	for i, s := range spans {
		if s.Name == "op" && s.Parent == 0 {
			total += s.dur()
			covered += s.dur() - self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}
