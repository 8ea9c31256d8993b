// Package symnet is a Go reimplementation of SymNet (Stoenescu et al.,
// SIGCOMM 2016): scalable symbolic execution for network dataplanes using
// SEFL, a modeling language designed so that a packet *is* an execution
// path.
//
// The facade re-exports the main entry points; the implementation lives in
// internal packages:
//
//	internal/sefl     — the SEFL language (Fig. 2 instruction set)
//	internal/core     — the symbolic-execution engine
//	internal/solver   — the constraint solver (Z3's role)
//	internal/models   — switches, routers, NATs, tunnels, encryption
//	internal/tables   — MAC-table / FIB parsers + LPM compilation
//	internal/click    — Click configurations and element models
//	internal/asa      — Cisco ASA configuration -> pipeline models
//	internal/verify   — all-pairs reachability reports and per-path field queries
//	internal/conform  — model-vs-implementation testing (§8.3)
//	internal/hsa      — Header Space Analysis baseline
//	internal/minic    — naive symbolic execution baseline ("Klee")
//	internal/datasets — synthetic evaluation workloads
//	internal/churn    — incremental re-verification behind Session.Serve
//	internal/httpapi  — the /v1 HTTP surface over a Serving handle
//
// Quickstart:
//
//	net := symnet.NewNetwork()
//	fw := net.AddElement("fw", "firewall", 1, 1)
//	fw.SetInCode(symnet.WildcardPort, sefl.Seq(
//	    sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.C(80))},
//	    sefl.Forward{Port: 0},
//	))
//	sess, err := symnet.Compile(net, symnet.Options{})
//	res, err := sess.Run(symnet.PortRef{Elem: "fw", Port: 0}, sefl.NewTCPPacket())
//
// A Session pins the run options, warms compiled programs, and shares a
// satisfiability memo across queries; Session.Serve starts a resident
// churn-serving handle (versioned reports, delta batching, watch feed).
// That handle, Serving, is internal/churn's Resident itself: Apply, the
// lock-free reads, Export and Restore, and Close, which also dismisses the
// fleet. Compile is the only way in: there are no package-level run
// functions, and Serve is the only place the serving stack is assembled —
// cmd/symnetd is Compile -> Serve -> httpapi.Handler plus process lifecycle.
package symnet

import (
	"symnet/internal/core"
	"symnet/internal/sched"
	"symnet/internal/solver"
)

// Re-exported core types. See internal/core for full documentation.
type (
	// Network is the set of elements and links under analysis.
	Network = core.Network
	// Element is a network box with SEFL code on its ports.
	Element = core.Element
	// PortRef names an element port.
	PortRef = core.PortRef
	// Options configures a run.
	Options = core.Options
	// Result is the outcome of a symbolic-execution run.
	Result = core.Result
	// Path is one finished execution path.
	Path = core.Path
	// Status classifies how a path ended.
	Status = core.Status
)

// Engine constants.
const (
	WildcardPort = core.WildcardPort
	Delivered    = core.Delivered
	Failed       = core.Failed
	Looped       = core.Looped
	LoopOff      = core.LoopOff
	LoopFull     = core.LoopFull
	LoopAddrOnly = core.LoopAddrOnly
)

// Batch types. See internal/sched for full documentation.
type (
	// BatchJob is one independent verification query in a batch.
	BatchJob = sched.Job
	// BatchResult pairs a BatchJob with its outcome.
	BatchResult = sched.JobResult
	// SatMemo is a satisfiability memo cache shared across runs. Every run
	// uses a fresh one by default; set Options.SatMemo to one value across
	// runs to reuse memoized solver verdicts. It holds only the Sat checks
	// that domain intersection leaves undecided, which the bundled models
	// seldom reach. Results are identical with or without sharing.
	SatMemo = solver.SatCache
)

// NewSatMemo returns an empty cross-run satisfiability memo cache for
// Options.SatMemo.
func NewSatMemo() *SatMemo { return solver.NewSatCache() }

// NewNetwork returns an empty network.
func NewNetwork() *Network { return core.NewNetwork() }
