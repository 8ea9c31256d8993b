package prog

import (
	"sync/atomic"

	"symnet/internal/obs"
)

// Compile-side telemetry lives in package-global atomics rather than a
// per-run registry: compiled programs are cached process-wide (an element's
// program outlives any one run), so per-run attribution is ill-defined, and
// compiles are rare enough that unconditional counting costs nothing
// measurable. RegisterMetrics surfaces the totals as snapshot-time counter
// funcs, so a registry always reports the live process-wide values.
var (
	compileCount  atomic.Int64 // SEFL programs lowered to flat IR
	compileNs     atomic.Int64 // total wall time spent in Compile
	itableLowered atomic.Int64 // table guards lowered to interval tables
)

// RegisterMetrics exposes the compiler's process-wide telemetry on reg:
//
//	prog.compile.count   programs compiled
//	prog.compile.ns      total compile wall time (nanoseconds)
//	prog.itable.lowered  egress guards lowered to interval tables
//
// No-op on a nil registry.
func RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("prog.compile.count", compileCount.Load)
	reg.CounterFunc("prog.compile.ns", compileNs.Load)
	reg.CounterFunc("prog.itable.lowered", itableLowered.Load)
}
