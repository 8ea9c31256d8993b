package prog_test

// Differential property tests for per-element summaries, the engine's
// default: every observable — path IDs, statuses, failure messages,
// histories, traces, final memory, symbol IDs, the constraint context's
// chained fingerprint, and run statistics — must be byte-identical to the IR
// reference path (Options.IRExec), over random programs and the real
// datasets, with every dataset exercising both the summary
// fast path and the IR fallback (pinned via the summary.* counters; the
// fallback gate supplies the latter, as the real models all summarize).

import (
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/expr"
	"symnet/internal/obs"
	"symnet/internal/sefl"
)

// addFallbackGate prepends a one-hop pass-through element whose code stays
// unsummarizable by construction — more sequential branches than the node
// budget holds, each on metadata presence so it never forks — guaranteeing
// the dataset exercises the IR fallback path alongside the summary fast
// path.
func addFallbackGate(net *core.Network, inject core.PortRef) core.PortRef {
	g := net.AddElement("sumgate", "gate", 1, 1)
	g.SetInCode(0, overBudgetGate(0))
	net.MustLink("sumgate", 0, inject.Elem, inject.Port)
	return core.PortRef{Elem: "sumgate", Port: 0}
}

// overBudgetGate is a program just over the summary node budget (4096
// nodes; each If costs three: its own and its two arms') that forwards to
// port.
func overBudgetGate(port int) sefl.Instr {
	m := sefl.Meta{Name: "sumgate", Local: true}
	is := make([]sefl.Instr, 1400, 1401)
	for i := range is {
		is[i] = sefl.If{C: sefl.MetaPresent{M: m}, Then: sefl.NoOp{}, Else: sefl.NoOp{}}
	}
	return sefl.Seq(append(is, sefl.Forward{Port: port})...)
}

// TestDifferentialSummariesRandom is the core summary property over random
// SEFL programs: the default engine's results must be byte-identical (full
// fingerprint, ctx chain and stats included) to the IR reference's. The
// generator's For loops and post-branch Symbolic mints exercise the sibling
// order every executor shares, and every generated element-port must
// summarize: the node budget is the one refusal left, and no generated
// program comes near it.
func TestDifferentialSummariesRandom(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	summarized := 0
	for seed := 0; seed < seeds; seed++ {
		g := newGen(int64(seed))
		net, inj := g.network()
		init := g.inject()
		opts := core.Options{MaxHops: 48, MaxPaths: 1 << 14, Trace: seed%4 == 0}

		refOpts := opts
		refOpts.IRExec = true
		ref, err := core.Run(net, inj, init, refOpts)
		if err != nil {
			t.Fatalf("seed %d: IR run: %v", seed, err)
		}
		want := fingerprint(ref)

		res, err := core.Run(net, inj, init, opts)
		if err != nil {
			t.Fatalf("seed %d: summaries run: %v", seed, err)
		}
		if got := fingerprint(res); got != want {
			t.Fatalf("seed %d: summaries result differs from IR:\n--- IR ---\n%s--- summaries ---\n%s",
				seed, diffHead(want, got), diffHead(got, want))
		}
		if ref.Stats.Paths == 0 {
			t.Fatalf("seed %d: no paths explored", seed)
		}
		for _, c := range core.SummaryCensus(net) {
			if !c.Summarized {
				t.Fatalf("seed %d: %s port %d (out %v) unsummarizable: %s", seed, c.Elem, c.Port, c.Out, c.Reason)
			}
			summarized++
		}
	}
	t.Logf("%d seeds: %d element-ports, all summarized", seeds, summarized)
	if summarized == 0 {
		t.Fatal("no element-port summarized")
	}
}

// TestSiblingsRunStateMajor pins the one sibling order every executor
// shares: after a symbolic If, each path runs the rest of the program before
// the next sibling starts, so the two Symbolic assigns that follow mint
// contiguous symbols per path — the Then path s_k and s_k+1, the Else path
// s_k+2 and s_k+3 — in the summaries, IR and AST engines alike, and the port
// summarizes.
func TestSiblingsRunStateMajor(t *testing.T) {
	f0 := sefl.Hdr{Off: sefl.Off{Rel: 0}, Size: 32, Name: "F0"}
	f1 := sefl.Hdr{Off: sefl.Off{Rel: 32}, Size: 32, Name: "F1"}
	f2 := sefl.Hdr{Off: sefl.Off{Rel: 64}, Size: 32, Name: "F2"}
	arm := sefl.Hdr{Off: sefl.Off{Rel: 96}, Size: 8, Name: "ARM"}
	net := core.NewNetwork()
	net.AddElement("dut", "dut", 1, 1).SetInCode(0, sefl.Seq(
		sefl.If{
			C:    sefl.Eq(sefl.Ref{LV: f0}, sefl.C(7)),
			Then: sefl.Assign{LV: arm, E: sefl.C(1)},
			Else: sefl.Assign{LV: arm, E: sefl.C(2)},
		},
		sefl.Assign{LV: f1, E: sefl.Symbolic{W: 32, Name: "a"}},
		sefl.Assign{LV: f2, E: sefl.Symbolic{W: 32, Name: "b"}},
		sefl.Forward{Port: 0},
	))
	inj := core.PortRef{Elem: "dut", Port: 0}
	var packet []sefl.Instr
	for _, h := range []sefl.Hdr{f0, f1, f2, arm} {
		packet = append(packet, sefl.Allocate{LV: h, Size: h.Size})
	}
	packet = append(packet, sefl.Assign{LV: f0, E: sefl.Symbolic{W: 32, Name: "F0"}})
	read := func(p *core.Path, h sefl.Hdr) expr.Lin {
		v, err := p.Mem.ReadHdr(h.Off.Rel, h.Size)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, mode := range []string{"summaries", "IR", "AST"} {
		opts := core.Options{IRExec: mode == "IR", ASTInterp: mode == "AST"}
		res, err := core.Run(net, inj, sefl.Seq(packet...), opts)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(res.Paths) != 2 {
			t.Fatalf("%s: %d paths, want 2", mode, len(res.Paths))
		}
		// F0 is s0; the Then path (ARM 1) mints s1, s2 and the Else path s3, s4.
		for _, p := range res.Paths {
			side, _ := read(p, arm).ConstVal()
			k := expr.SymID(2*side - 1)
			if a, b := read(p, f1), read(p, f2); a.Sym != k || b.Sym != k+1 {
				t.Errorf("%s: arm %d path minted F1 s%d, F2 s%d; want s%d, s%d", mode, side, a.Sym, b.Sym, k, k+1)
			}
		}
	}
	for _, c := range core.SummaryCensus(net) {
		if !c.Summarized {
			t.Errorf("%s port %d unsummarizable: %s", c.Elem, c.Port, c.Reason)
		}
	}
}

// TestDifferentialMaskedTooSparse pins the refusal of a masked match the
// solver cannot expand (mask 0xff on a 32-bit symbolic field leaves 24 free
// high bits; solver.FromMask would panic): the path fails with one pointed
// message, byte-identical in the summaries, IR and AST engines.
func TestDifferentialMaskedTooSparse(t *testing.T) {
	f := sefl.Hdr{Off: sefl.Off{Rel: 0}, Size: 32, Name: "F"}
	net := core.NewNetwork()
	net.AddElement("dut", "dut", 1, 1).SetInCode(0, sefl.Seq(
		sefl.Constrain{C: sefl.Masked{E: sefl.Ref{LV: f}, Mask: 0xff, Val: 1}},
		sefl.Forward{Port: 0},
	))
	inj := core.PortRef{Elem: "dut", Port: 0}
	packet := sefl.Seq(sefl.Allocate{LV: f, Size: 32}, sefl.Assign{LV: f, E: sefl.Symbolic{W: 32, Name: "F"}})
	const msg = "masked match too sparse: mask 0xff leaves 24 free high bits of a 32-bit value (limit 20)"
	var want string
	for _, mode := range []string{"summaries", "IR", "AST"} {
		opts := core.Options{Trace: true}
		opts.IRExec = mode == "IR"
		opts.ASTInterp = mode == "AST"
		res, err := core.Run(net, inj, packet, opts)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(res.Paths) != 1 || res.Paths[0].Status != core.Failed || res.Paths[0].FailMsg != msg {
			t.Fatalf("%s: paths %d, first %+v; want one path failed with %q", mode, len(res.Paths), res.Paths[0], msg)
		}
		if got := fingerprint(res); want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s differs from summaries:\n%s", mode, diffHead(want, got))
		}
	}
}

// TestDifferentialSummariesWorkers is the acceptance property on the real
// datasets: the default engine must match the IR reference byte-for-byte,
// and every dataset must report at least one summarized element
// (summary.built, summary.hits) and at least one IR fallback
// (summary.unsummarizable, summary.fallbacks) — the fallback gate prepended
// to each injection point guarantees the latter even on all-summarizable
// models.
func TestDifferentialSummariesWorkers(t *testing.T) {
	type workload struct {
		name   string
		net    *core.Network
		inject core.PortRef
		packet sefl.Instr
		opts   core.Options
	}
	d := datasets.NewDepartment(datasets.DepartmentConfig{
		NumAccessSwitches: 3, HostsPerSwitch: 24, Routes: 40, Seed: 5})
	bb := datasets.StanfordBackbone(6, 50)
	fh, fhInject := datasets.ForkHeavy(8, 3, 4)
	sh, shInject := datasets.SatHeavy(24)
	ws := []workload{
		{"department", d.Net, core.PortRef{Elem: "asw0", Port: 1}, d.OfficePacket(false), core.Options{MaxHops: 65}},
		{"backbone", bb.Net, core.PortRef{Elem: bb.Zones[0], Port: 2}, sefl.NewIPPacket(), core.Options{MaxHops: 65}},
		{"forkheavy", fh, fhInject, sefl.NewTCPPacket(), core.Options{MaxHops: 1 << 12}},
		{"satheavy", sh, shInject, sefl.NewTCPPacket(), core.Options{MaxHops: 65}},
	}
	for _, w := range ws {
		inj := addFallbackGate(w.net, w.inject)

		refOpts := w.opts
		refOpts.IRExec = true
		ref, err := core.Run(w.net, inj, w.packet, refOpts)
		if err != nil {
			t.Fatalf("%s: IR run: %v", w.name, err)
		}
		want := fingerprint(ref)
		if ref.Stats.Paths == 0 {
			t.Fatalf("%s: no paths explored", w.name)
		}

		reg := obs.NewRegistry()
		opts := w.opts
		opts.Obs = obs.New(reg, nil)
		res, err := core.Run(w.net, inj, w.packet, opts)
		if err != nil {
			t.Fatalf("%s: summaries run: %v", w.name, err)
		}
		if got := fingerprint(res); got != want {
			t.Errorf("%s: summaries result differs from IR:\n%s", w.name, diffHead(want, got))
		}
		assertSummaryCounters(t, w.name, reg)
	}
}

// TestDifferentialDefaultDepartment pins what the zero Options run on the
// department network, no fallback gate added: summaries carry every
// element-port, the ASA's two pipelines (their option parsing is a For over
// runtime metadata) included, so nothing falls back to the IR, and results
// are byte-identical to the IR reference (constraint chain included) and to
// the AST interpreter.
func TestDifferentialDefaultDepartment(t *testing.T) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{
		NumAccessSwitches: 3, HostsPerSwitch: 24, Routes: 40, Seed: 5})
	inj, packet := core.PortRef{Elem: "asw0", Port: 1}, d.OfficePacket(false)
	base := core.Options{MaxHops: 64}

	irOpts, astOpts := base, base
	irOpts.IRExec, astOpts.ASTInterp = true, true
	ir, err := core.Run(d.Net, inj, packet, irOpts)
	if err != nil {
		t.Fatalf("IR run: %v", err)
	}
	ast, err := core.Run(d.Net, inj, packet, astOpts)
	if err != nil {
		t.Fatalf("AST run: %v", err)
	}
	if ir.Stats.Paths == 0 {
		t.Fatal("no paths explored")
	}
	reg := obs.NewRegistry()
	opts := base
	opts.Obs = obs.New(reg, nil)
	res, err := core.Run(d.Net, inj, packet, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := fingerprint(ir), fingerprint(res); want != got {
		t.Errorf("default engine differs from the IR reference:\n%s", diffHead(want, got))
	}
	if want, got := obsFingerprint(ast), obsFingerprint(res); want != got {
		t.Errorf("default engine differs from the AST interpreter:\n%s", diffHead(want, got))
	}
	snap := reg.Snapshot()
	hits, fallbacks := snap.Counters["summary.hits"], snap.Counters["summary.fallbacks"]
	if hits < 1 || fallbacks != 0 || snap.Counters["summary.elem_hits.asa"] < 1 {
		t.Errorf("summary.hits=%d (asa %d) summary.fallbacks=%d, want every visit, the ASA's included, summarized",
			hits, snap.Counters["summary.elem_hits.asa"], fallbacks)
	}
	var fallback []string
	for _, c := range core.SummaryCensus(d.Net) {
		if !c.Summarized {
			fallback = append(fallback, core.PortRef{Elem: c.Elem, Port: c.Port, Out: c.Out}.String()+": "+c.Reason)
		}
	}
	if len(fallback) != 0 {
		t.Errorf("unsummarizable element-ports:\n%s\nwant none", strings.Join(fallback, "\n"))
	}
}

// assertSummaryCounters pins that a run exercised both execution paths and
// attributed hits per element. Build counters (summary.built,
// summary.unsummarizable) move only on the run that first populates the
// element caches, which the IR reference run does not, so the summaries run
// is that run.
func assertSummaryCounters(t *testing.T, name string, reg *obs.Registry) {
	t.Helper()
	snap := reg.Snapshot()
	for _, c := range []string{"summary.hits", "summary.fallbacks", "summary.built", "summary.unsummarizable"} {
		if snap.Counters[c] < 1 {
			t.Errorf("%s: counter %s = %d, want >= 1", name, c, snap.Counters[c])
		}
	}
	perElem := int64(0)
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "summary.elem_hits.") {
			perElem += v
		}
	}
	if perElem != snap.Counters["summary.hits"] {
		t.Errorf("%s: per-element hits sum to %d, summary.hits = %d",
			name, perElem, snap.Counters["summary.hits"])
	}
}

// TestDifferentialSummariesRowSemantics pins the delicate row semantics on
// handcrafted elements: overlapping guards must apply in program (priority)
// order, and a row's rewrite must observe the value another arm of the row
// set wrote earlier on the same path.
func TestDifferentialSummariesRowSemantics(t *testing.T) {
	f0 := sefl.Hdr{Off: sefl.Off{Rel: 0}, Size: 32, Name: "F0"}
	f1 := sefl.Hdr{Off: sefl.Off{Rel: 32}, Size: 32, Name: "F1"}
	f2 := sefl.Hdr{Off: sefl.Off{Rel: 64}, Size: 32, Name: "F2"}
	inject := sefl.Seq(
		sefl.Allocate{LV: f0, Size: 32},
		sefl.Assign{LV: f0, E: sefl.Symbolic{W: 32, Name: "F0"}},
		sefl.Allocate{LV: f1, Size: 32},
		sefl.Assign{LV: f1, E: sefl.C(0)},
		sefl.Allocate{LV: f2, Size: 32},
		sefl.Assign{LV: f2, E: sefl.C(0)},
	)
	cases := []struct {
		name string
		code sefl.Instr
	}{
		// Overlapping guards: F0 < 10 implies F0 < 100, so row order (first
		// match wins along each path) is observable in which port delivers.
		{"overlapping guard priority", sefl.If{
			C:    sefl.Lt(sefl.Ref{LV: f0}, sefl.C(10)),
			Then: sefl.Forward{Port: 0},
			Else: sefl.If{
				C:    sefl.Lt(sefl.Ref{LV: f0}, sefl.C(100)),
				Then: sefl.Forward{Port: 1},
				Else: sefl.Forward{Port: 2},
			},
		}},
		// Cross-row data flow: the shared continuation reads F1, which each
		// arm wrote differently — rewrites must compose, not snapshot.
		{"rewrite reads branch-written field", sefl.Seq(
			sefl.If{
				C:    sefl.Eq(sefl.Ref{LV: f0}, sefl.C(5)),
				Then: sefl.Assign{LV: f1, E: sefl.C(5)},
				Else: sefl.Assign{LV: f1, E: sefl.C(7)},
			},
			sefl.Assign{LV: f2, E: sefl.Add{A: sefl.Ref{LV: f1}, B: sefl.C(1)}},
			sefl.Constrain{C: sefl.Lt(sefl.Ref{LV: f2}, sefl.C(7))},
			sefl.Forward{Port: 0},
		)},
	}
	for _, tc := range cases {
		net := core.NewNetwork()
		e := net.AddElement("dut", "dut", 1, 3)
		e.SetInCode(0, tc.code)
		sink := net.AddElement("sink", "sink", 1, 0)
		sink.SetInCode(0, sefl.NoOp{})
		for p := 0; p < 3; p++ {
			net.MustLink("dut", p, "sink", 0)
		}
		inj := core.PortRef{Elem: "dut", Port: 0}
		opts := core.Options{MaxHops: 8, Trace: true}

		refOpts := opts
		refOpts.IRExec = true
		ref, err := core.Run(net, inj, inject, refOpts)
		if err != nil {
			t.Fatalf("%s: IR run: %v", tc.name, err)
		}

		reg := obs.NewRegistry()
		sumOpts := opts
		sumOpts.Obs = obs.New(reg, nil)
		res, err := core.Run(net, inj, inject, sumOpts)
		if err != nil {
			t.Fatalf("%s: summaries run: %v", tc.name, err)
		}
		if want, got := fingerprint(ref), fingerprint(res); want != got {
			t.Errorf("%s: summaries result differs from IR:\n%s", tc.name, diffHead(want, got))
		}
		// The device under test must have gone through the summary path, or
		// the case pinned nothing.
		if hits := reg.Snapshot().Counters["summary.elem_hits.dut"]; hits < 1 {
			t.Errorf("%s: dut not executed via summary (hits=%d)", tc.name, hits)
		}
	}
}
