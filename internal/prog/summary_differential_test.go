package prog_test

// Differential property tests for the compiled program as each element's
// summary: SEFL branches only where the network does, so the compiled
// program is the element's transfer function, and walking it must match
// the AST reference interpreter (Options.ASTInterp) on every observable —
// path IDs, statuses, failure messages, histories, traces, final memory,
// symbol IDs and run statistics — and on the constraint context's chained
// fingerprint too where the compiled side's table guards are written as
// Or-trees (withOrTreeGuards), which is how the AST interpreter evaluates
// them.

import (
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/expr"
	"symnet/internal/obs"
	"symnet/internal/sefl"
)

// TestDifferentialSummariesRandom is the core summary property over random
// SEFL programs: the default engine, walking each element-port's compiled
// program as its summary, must match the AST reference on every observable,
// and a second run on the same network — every summary now resident — must
// reproduce the first run's full fingerprint, ctx chain and stats included.
// The generator's For loops and post-branch Symbolic mints exercise the
// sibling order every executor shares.
func TestDifferentialSummariesRandom(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	resident := 0
	for seed := 0; seed < seeds; seed++ {
		g := newGen(int64(seed))
		net, inj := g.network()
		init := g.inject()
		opts := core.Options{MaxHops: 48, MaxPaths: 1 << 14, Trace: seed%4 == 0}

		astOpts := opts
		astOpts.ASTInterp = true
		ast, err := core.Run(net, inj, init, astOpts)
		if err != nil {
			t.Fatalf("seed %d: AST run: %v", seed, err)
		}
		if ast.Stats.Paths == 0 {
			t.Fatalf("seed %d: no paths explored", seed)
		}

		res, err := core.Run(net, inj, init, opts)
		if err != nil {
			t.Fatalf("seed %d: summaries run: %v", seed, err)
		}
		if got, want := obsFingerprint(res), obsFingerprint(ast); got != want {
			t.Fatalf("seed %d: summaries result differs from AST:\n--- AST ---\n%s--- summaries ---\n%s",
				seed, diffHead(want, got), diffHead(got, want))
		}
		for _, e := range net.Elements() {
			for port := 0; port < e.NumIn; port++ {
				if _, ok := e.CachedProgram(port, false); ok {
					resident++
				}
			}
		}

		again, err := core.Run(net, inj, init, opts)
		if err != nil {
			t.Fatalf("seed %d: resident-summaries run: %v", seed, err)
		}
		if got, want := fingerprint(again), fingerprint(res); got != want {
			t.Fatalf("seed %d: resident summaries do not reproduce the first run:\n--- first ---\n%s--- again ---\n%s",
				seed, diffHead(want, got), diffHead(got, want))
		}
	}
	t.Logf("%d seeds: %d element-ports summarized", seeds, resident)
	if resident == 0 {
		t.Fatal("no element-port summarized")
	}
}

// TestSiblingsRunStateMajor pins the one sibling order every executor
// shares: after a symbolic If, each path runs the rest of the program before
// the next sibling starts, so the two Symbolic assigns that follow mint
// contiguous symbols per path — the Then path s_k and s_k+1, the Else path
// s_k+2 and s_k+3 — in the compiled and AST engines alike.
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
	for _, mode := range []string{"compiled", "AST"} {
		opts := core.Options{ASTInterp: mode == "AST"}
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
}

// TestIncompleteSourceFailsLikeAST pins what becomes of port source that
// lacks a child its node reads — what a hostile fleet coordinator can send,
// since the wire decodes a missing child as nil: the compiled engine runs
// it, from the source as written and from the source that crossed the wire,
// byte-identically to the AST interpreter, failing the path, never
// panicking.
func TestIncompleteSourceFailsLikeAST(t *testing.T) {
	dst := sefl.Ref{LV: sefl.TcpDst}
	for _, tc := range []struct {
		name string
		ins  sefl.Instr
	}{
		{"if without a condition", sefl.If{Then: sefl.Forward{Port: 0}, Else: sefl.Forward{Port: 0}}},
		{"if without an arm", sefl.If{C: sefl.Lt(dst, sefl.C(1024))}},
		{"constrain without a condition", sefl.Constrain{}},
		{"assign without an expression", sefl.Assign{LV: sefl.TcpDst}},
		{"assign without an l-value", sefl.Assign{E: sefl.C(80)}},
		{"create-tag without an expression", sefl.CreateTag{Name: "X"}},
		{"sum without an operand", sefl.Assign{LV: sefl.TcpDst, E: sefl.Add{A: dst}}},
		{"not without a child", sefl.Constrain{C: sefl.CNot{}}},
		{"or over an incomplete child", sefl.Constrain{C: sefl.COr{Cs: []sefl.Cond{sefl.Cmp{Op: expr.Eq, L: dst}, sefl.Eq(dst, sefl.C(80))}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := sefl.EncodeInstr(tc.ins)
			if err != nil {
				t.Fatal(err)
			}
			wired, err := sefl.DecodeInstr(w)
			if err != nil {
				t.Fatal(err)
			}
			var want string
			for _, run := range []struct {
				mode string
				ins  sefl.Instr
				ast  bool
			}{{"AST", tc.ins, true}, {"compiled", tc.ins, false}, {"compiled from the wire", wired, false}} {
				net := core.NewNetwork()
				net.AddElement("dut", "dut", 1, 1).SetInCode(0, sefl.Seq(run.ins, sefl.Forward{Port: 0}))
				net.AddElement("sink", "sink", 1, 0).SetInCode(0, sefl.NoOp{})
				net.MustLink("dut", 0, "sink", 0)
				res, err := core.Run(net, core.PortRef{Elem: "dut", Port: 0}, sefl.NewTCPPacket(), core.Options{Trace: true, ASTInterp: run.ast})
				if err != nil {
					t.Fatalf("%s: %v", run.mode, err)
				}
				if res.Stats.Failed == 0 {
					t.Fatalf("%s: no path failed", run.mode)
				}
				if got := fingerprint(res); want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s differs from the AST:\n%s", run.mode, diffHead(want, got))
				}
			}
		})
	}
}

// TestDifferentialSummariesWorkers is the acceptance property on the real
// datasets, run with a metrics registry attached: the compiled engine must
// match the AST reference on every observable, and the compiled engine on
// the Or-tree network on the constraint chain too. The network is warmed
// (core.Warm), so the metered run finds every program in the cache
// (core.progcache.hits) and compiles none (core.progcache.misses).
func TestDifferentialSummariesWorkers(t *testing.T) {
	type workload struct {
		name   string
		net    *core.Network
		inject core.PortRef
		packet sefl.Instr
		opts   core.Options
	}
	build := func() []workload {
		d := datasets.NewDepartment(datasets.DepartmentConfig{
			NumAccessSwitches: 3, HostsPerSwitch: 24, Routes: 40, Seed: 5})
		bb := datasets.StanfordBackbone(6, 50)
		fh, fhInject := datasets.ForkHeavy(8, 3, 4)
		sh, shInject := datasets.SatHeavy(24)
		return []workload{
			{"department", d.Net, core.PortRef{Elem: "asw0", Port: 1}, d.OfficePacket(false), core.Options{MaxHops: 65}},
			{"backbone", bb.Net, core.PortRef{Elem: bb.Zones[0], Port: 2}, sefl.NewIPPacket(), core.Options{MaxHops: 65}},
			{"forkheavy", fh, fhInject, sefl.NewTCPPacket(), core.Options{MaxHops: 1 << 12}},
			{"satheavy", sh, shInject, sefl.NewTCPPacket(), core.Options{MaxHops: 65}},
		}
	}
	ws, ors := build(), build()
	for i, w := range ws {
		astOpts := w.opts
		astOpts.ASTInterp = true
		ast, err := core.Run(w.net, w.inject, w.packet, astOpts)
		if err != nil {
			t.Fatalf("%s: AST run: %v", w.name, err)
		}
		orTree, err := core.Run(withOrTreeGuards(ors[i].net), w.inject, w.packet, w.opts)
		if err != nil {
			t.Fatalf("%s: Or-tree compiled run: %v", w.name, err)
		}
		core.Warm(w.net)
		reg := obs.NewRegistry()
		opts := w.opts
		opts.Obs = obs.New(reg, nil)
		res, err := core.Run(w.net, w.inject, w.packet, opts)
		if err != nil {
			t.Fatalf("%s: compiled run: %v", w.name, err)
		}
		if ast.Stats.Paths == 0 {
			t.Fatalf("%s: no paths explored", w.name)
		}
		if want, got := obsFingerprint(ast), obsFingerprint(res); got != want {
			t.Errorf("%s: compiled result differs from AST:\n%s", w.name, diffHead(want, got))
		}
		if want, got := fingerprint(ast), fingerprint(renameOrTreeMsgs(orTree, orTreeMsgs(w.net))); got != want {
			t.Errorf("%s: Or-tree compiled result differs from AST:\n%s", w.name, diffHead(want, got))
		}
		snap := reg.Snapshot()
		if hits, misses := snap.Counters["core.progcache.hits"], snap.Counters["core.progcache.misses"]; hits < 1 || misses != 0 {
			t.Errorf("%s: core.progcache.hits = %d, misses = %d; want every visit served by the warmed programs", w.name, hits, misses)
		}
	}
}

// TestDifferentialDefaultDepartment pins what the zero Options run on the
// department network, the ASA's two pipelines (their option parsing is a
// For over runtime metadata) included: results are byte-identical to the
// AST interpreter, and prog.exec_ns times every port visit, each of which
// the program cache served or compiled.
func TestDifferentialDefaultDepartment(t *testing.T) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{
		NumAccessSwitches: 3, HostsPerSwitch: 24, Routes: 40, Seed: 5})
	inj, packet := core.PortRef{Elem: "asw0", Port: 1}, d.OfficePacket(false)
	base := core.Options{MaxHops: 64}

	astOpts := base
	astOpts.ASTInterp = true
	ast, err := core.Run(d.Net, inj, packet, astOpts)
	if err != nil {
		t.Fatalf("AST run: %v", err)
	}
	if ast.Stats.Paths == 0 {
		t.Fatal("no paths explored")
	}
	reg := obs.NewRegistry()
	opts := base
	opts.Obs = obs.New(reg, nil)
	res, err := core.Run(d.Net, inj, packet, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := obsFingerprint(ast), obsFingerprint(res); want != got {
		t.Errorf("default engine differs from the AST interpreter:\n%s", diffHead(want, got))
	}
	snap := reg.Snapshot()
	visits := snap.Counters["core.progcache.hits"] + snap.Counters["core.progcache.misses"]
	if timed := snap.Hists["prog.exec_ns"].Count; visits < 1 || timed != visits {
		t.Errorf("prog.exec_ns timed %d visits, the program cache served %d; want every visit timed", timed, visits)
	}
}

// TestDifferentialSummariesRowSemantics pins the delicate row semantics on
// handcrafted elements: overlapping guards must apply in program (priority)
// order, and a rewrite after a branch must observe the value the branch's
// arm wrote earlier on the same path.
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
		// Data flow across the join: the continuation both arms share reads
		// F1, which each arm wrote differently — rewrites must compose, not
		// snapshot.
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

		astOpts := opts
		astOpts.ASTInterp = true
		ast, err := core.Run(net, inj, inject, astOpts)
		if err != nil {
			t.Fatalf("%s: AST run: %v", tc.name, err)
		}
		res, err := core.Run(net, inj, inject, opts)
		if err != nil {
			t.Fatalf("%s: compiled run: %v", tc.name, err)
		}
		if want, got := fingerprint(ast), fingerprint(res); want != got {
			t.Errorf("%s: compiled result differs from AST:\n%s", tc.name, diffHead(want, got))
		}
	}
}
