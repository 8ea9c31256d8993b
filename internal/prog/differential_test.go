package prog_test

// Differential property tests: randomly generated SEFL programs executed by
// the compiled-IR engine must produce Results byte-identical to the AST
// reference interpreter. The generator
// deliberately produces the constructs whose compilation is delicate —
// Symbolic allocations after forks (global allocation order), nested blocks
// behind Ifs (splice analysis), dead code behind terminators, error paths
// (unset tags, unallocated reads, unsatisfiable constraints), For loops,
// table guards (of any size, malformed), and tracing.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/expr"
	"symnet/internal/prog"
	"symnet/internal/sefl"
)

// fingerprint serializes everything observable about a Result: path IDs,
// statuses, messages, histories, traces, final memory (fields, metadata,
// tags), the constraint context's chained fingerprint, and run statistics.
func fingerprint(res *core.Result) string { return fingerprintCtx(res, true) }

// obsFingerprint is fingerprint minus the constraint-fingerprint chain: the
// comparison surface between a lowered table guard and the Or-tree it stands
// for (withOrTreeGuards). The two hand the solver different (equivalent)
// condition representations, so the chained Add fingerprints legitimately
// differ; every observable — results, statuses, messages, histories, traces,
// memory contents, symbol IDs, pending-disjunction counts, solver
// statistics — must still be byte-identical.
func obsFingerprint(res *core.Result) string { return fingerprintCtx(res, false) }

// fpTags are the tags the generator and the packets here create, sorted.
var fpTags = []string{sefl.TagEnd, sefl.TagL2, sefl.TagL3, sefl.TagL4, "PAYLOAD", sefl.TagStart, "T", "U", sefl.TagVLAN}

func fingerprintCtx(res *core.Result, withCtx bool) string {
	var b strings.Builder
	for _, p := range res.Paths {
		fmt.Fprintf(&b, "#%d %s %q", p.ID, p.Status, p.FailMsg)
		for _, h := range p.History() {
			fmt.Fprintf(&b, " %s", h)
		}
		for _, line := range p.Trace {
			fmt.Fprintf(&b, " T:%s", line)
		}
		for _, f := range p.Mem.Fields() {
			fmt.Fprintf(&b, " @%d/%d=%v:%v", f.Off, f.Size, f.Val, f.Set)
		}
		for _, me := range p.Mem.MetaEntries() {
			fmt.Fprintf(&b, " m[%s]=%v:%v", me.Key, me.Val, me.Set)
		}
		for _, tag := range fpTags {
			if v, ok := p.Mem.Tag(tag); ok {
				fmt.Fprintf(&b, " t[%s]=%d", tag, v)
			}
		}
		if withCtx {
			fp := p.Ctx().Fingerprint()
			fmt.Fprintf(&b, " ctx=%x.%x", fp.Hi, fp.Lo)
		}
		fmt.Fprintf(&b, " pend=%d\n", p.Ctx().PendingOrs())
	}
	fmt.Fprintf(&b, "stats %+v\n", res.Stats)
	return b.String()
}

// gen is a deterministic random SEFL generator.
type gen struct {
	rng  *rand.Rand
	meta []sefl.Meta
	hdrs []sefl.Hdr
}

func newGen(seed int64) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	// Header-field palette: allocated by the injection code. Distinct
	// offsets; widths matter for fold/coerce paths.
	g.hdrs = []sefl.Hdr{
		{Off: sefl.Off{Rel: 0}, Size: 32, Name: "F0"},
		{Off: sefl.Off{Rel: 32}, Size: 16, Name: "F1"},
		{Off: sefl.Off{Rel: 48}, Size: 16, Name: "F2"},
		{Off: sefl.FromTag("T", 0), Size: 8, Name: "F3"}, // tag-relative
	}
	g.meta = []sefl.Meta{
		{Name: "m0"}, {Name: "m1"}, {Name: "m2", Local: true},
	}
	return g
}

func (g *gen) intn(n int) int { return g.rng.Intn(n) }

// inject builds the symbolic packet: fields allocated and assigned, the
// "T" tag set, two metadata entries. F3 sits at tag T (=64) + 0 = bit 64.
func (g *gen) inject() sefl.Instr {
	is := []sefl.Instr{
		sefl.CreateTag{Name: "T", E: sefl.C(64)},
	}
	for _, h := range g.hdrs {
		is = append(is,
			sefl.Allocate{LV: h, Size: h.Size},
			sefl.Assign{LV: h, E: sefl.Symbolic{W: h.Size, Name: h.Name}},
		)
	}
	is = append(is,
		sefl.Allocate{LV: g.meta[0], Size: 32},
		sefl.Assign{LV: g.meta[0], E: sefl.C(7)},
		sefl.Allocate{LV: g.meta[1], Size: 16},
		sefl.Assign{LV: g.meta[1], E: sefl.Symbolic{W: 16, Name: "m1"}},
	)
	return sefl.Seq(is...)
}

func (g *gen) lv() sefl.LValue {
	if g.intn(3) == 0 {
		return g.meta[g.intn(len(g.meta))]
	}
	return g.hdrs[g.intn(len(g.hdrs))]
}

func (g *gen) expr(depth int) sefl.Expr {
	switch r := g.intn(10); {
	case r < 3:
		widths := []int{0, 8, 16, 32}
		return sefl.CW(uint64(g.intn(200)), widths[g.intn(len(widths))])
	case r < 6:
		return sefl.Ref{LV: g.lv()}
	case r == 6:
		return sefl.Symbolic{W: 16, Name: fmt.Sprintf("s%d", g.intn(4))}
	case r == 7:
		return sefl.TagVal{Tag: "T", Rel: int64(g.intn(8))}
	default:
		if depth <= 0 {
			return sefl.C(uint64(g.intn(50)))
		}
		a, b := g.expr(depth-1), g.expr(depth-1)
		if g.intn(2) == 0 {
			return sefl.Add{A: a, B: b}
		}
		return sefl.Sub{A: a, B: b}
	}
}

func (g *gen) cond(depth int) sefl.Cond {
	if depth <= 0 || g.intn(4) == 0 {
		switch g.intn(6) {
		case 5:
			return g.table()
		case 0:
			ops := []func(l, r sefl.Expr) sefl.Cond{sefl.Eq, sefl.Ne, sefl.Lt, sefl.Le, sefl.Gt, sefl.Ge}
			return ops[g.intn(len(ops))](g.expr(1), g.expr(1))
		case 1:
			return sefl.Prefix{E: sefl.Ref{LV: g.hdrs[0]}, Value: uint64(g.intn(256)) << 24, Len: 8 + g.intn(8)}
		case 2:
			h := g.hdrs[g.intn(2)]
			return sefl.Prefix{E: sefl.Ref{LV: h}, Value: uint64(g.intn(256)) << uint(h.Size-8), Len: g.intn(h.Size + 1), Width: h.Size}
		case 3:
			return sefl.MetaPresent{M: g.meta[g.intn(len(g.meta))]}
		default:
			return sefl.CBool(g.intn(4) != 0)
		}
	}
	switch g.intn(3) {
	case 0:
		return sefl.AndC(g.cond(depth-1), g.cond(depth-1))
	case 1:
		return sefl.OrC(g.cond(depth-1), g.cond(depth-1))
	default:
		return sefl.NotC(g.cond(depth - 1))
	}
}

// table draws a table guard on one of the header fields inject allocated
// and assigned, at that field's width: one to six equality or prefix rows
// with up to two exclusions. One table in six is malformed — a row's prefix
// one bit longer than the field — which fails the path in both executors
// with Check's message.
func (g *gen) table() sefl.Table {
	f := g.hdrs[g.intn(len(g.hdrs))]
	high := func() uint64 { return uint64(g.intn(256)) << (f.Size - 8) }
	t := sefl.Table{F: f}
	for n := 1 + g.intn(6); n > 0; n-- {
		r := expr.GuardRow{Kind: expr.GuardEq, V: uint64(g.intn(200))}
		if g.intn(2) == 0 {
			r = expr.GuardRow{Kind: expr.GuardPrefix, V: high(), Len: g.intn(f.Size + 1)}
		}
		for k := g.intn(3); k > 0; k-- {
			r.Excl = append(r.Excl, expr.GuardExcl{V: high(), Len: 8 + g.intn(f.Size-7)})
		}
		t.Rows = append(t.Rows, r)
	}
	if g.intn(6) == 0 {
		r := &t.Rows[g.intn(len(t.Rows))]
		r.Kind, r.Len = expr.GuardPrefix, f.Size+1
	}
	return t
}

// tableGuard is a Constrain or, with depth left, an If on a table.
func (g *gen) tableGuard(depth int, numOut int) sefl.Instr {
	if depth > 0 && g.intn(2) == 0 {
		return sefl.If{C: g.table(), Then: g.instr(depth-1, numOut), Else: g.instr(depth-1, numOut)}
	}
	return sefl.Constrain{C: g.table()}
}

func (g *gen) instr(depth int, numOut int) sefl.Instr {
	switch r := g.intn(15); {
	case r < 4:
		return sefl.Assign{LV: g.lv(), E: g.expr(2)}
	case r < 6:
		return sefl.Constrain{C: g.cond(2)}
	case r == 6 && depth > 0:
		return sefl.If{C: g.cond(2), Then: g.instr(depth-1, numOut), Else: g.instr(depth-1, numOut)}
	case r == 7 && depth > 0:
		n := 2 + g.intn(2)
		is := make([]sefl.Instr, n)
		for i := range is {
			is[i] = g.instr(depth-1, numOut)
		}
		return sefl.Block{Is: is}
	case r == 8:
		m := sefl.Meta{Name: fmt.Sprintf("x%d", g.intn(3))}
		return sefl.Seq(
			sefl.Allocate{LV: m, Size: 16},
			sefl.Assign{LV: m, E: g.expr(1)},
		)
	case r == 9:
		// For over the metadata palette: body is a pure function of its key.
		return sefl.For{Pattern: "^m", Body: func(k sefl.Meta) sefl.Instr {
			return sefl.Assign{LV: k, E: sefl.Add{A: sefl.Ref{LV: k}, B: sefl.C(1)}}
		}}
	case r == 10:
		return sefl.CreateTag{Name: "U", E: g.expr(1)}
	case r == 11:
		return sefl.Fail{Msg: fmt.Sprintf("generated fail %d", g.intn(10))}
	case r == 12:
		// Error-path fodder: read through a possibly-unset tag.
		return sefl.Assign{LV: sefl.Hdr{Off: sefl.FromTag("U", 0), Size: 8}, E: sefl.C(1)}
	case r == 13:
		return g.tableGuard(depth, numOut)
	default:
		return sefl.NoOp{}
	}
}

// portCode generates input-port code ending in Forward or Fork. Half of it
// starts with a table guard, before the random instructions' error paths
// can end the path.
func (g *gen) portCode(numOut int) sefl.Instr {
	n := 1 + g.intn(4)
	is := make([]sefl.Instr, 0, n+2)
	if g.intn(2) == 0 {
		is = append(is, g.tableGuard(1, numOut))
	}
	for i := 0; i < n; i++ {
		is = append(is, g.instr(2, numOut))
	}
	switch g.intn(4) {
	case 0:
		ports := make([]int, 0, numOut)
		for p := 0; p < numOut; p++ {
			if g.intn(2) == 0 || len(ports) == 0 {
				ports = append(ports, p)
			}
		}
		is = append(is, sefl.Fork{Ports: ports})
	default:
		is = append(is, sefl.Forward{Port: g.intn(numOut)})
	}
	return sefl.Seq(is...)
}

// network builds a random chain of elements with occasional out-port code
// and cross links, ending in a sink.
func (g *gen) network() (*core.Network, core.PortRef) {
	net := core.NewNetwork()
	n := 2 + g.intn(3)
	fan := 2
	for i := 0; i < n; i++ {
		e := net.AddElement(fmt.Sprintf("e%d", i), "gen", fan, fan)
		e.SetInCode(core.WildcardPort, g.portCode(fan))
		if g.intn(3) == 0 {
			// Out-port code must not forward; generate straight-line code.
			e.SetOutCode(g.intn(fan), sefl.Seq(
				g.instr(1, fan),
				g.instr(1, fan),
			))
		}
	}
	sink := net.AddElement("sink", "sink", 1, 0)
	sink.SetInCode(0, sefl.NoOp{})
	for i := 0; i < n; i++ {
		for p := 0; p < fan; p++ {
			if i+1 < n {
				net.MustLink(fmt.Sprintf("e%d", i), p, fmt.Sprintf("e%d", i+1), g.intn(fan))
			} else {
				net.MustLink(fmt.Sprintf("e%d", i), p, "sink", 0)
			}
		}
	}
	return net, core.PortRef{Elem: "e0", Port: 0}
}

// TestDifferentialCompiledVsAST is the core differential property: for many
// random programs, the compiled engine's Result must be byte-identical to
// the AST interpreter's, with tracing exercised on a subset of seeds. The
// compiled engine on the Or-tree network (withOrTreeGuards), its tables'
// renderings renamed (orTreeMsgs), must match the AST including constraint
// fingerprints; on the network as written, with its
// table guards lowered, it must match on every observable (the ctx chain may
// differ on lowered guards). The programs must reach their tables: the
// paths that evaluate a table guard stay at the count the seeds give today,
// and at least one path fails on a malformed table in both executors.
func TestDifferentialCompiledVsAST(t *testing.T) {
	seeds, minTablePaths := 60, 64
	if testing.Short() {
		seeds, minTablePaths = 15, 18
	}
	tablePaths, malformedAST, malformedIR := 0, 0, 0
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
		want := fingerprint(ast)
		traced := ast
		if !opts.Trace {
			astOpts.Trace = true
			if traced, err = core.Run(net, inj, init, astOpts); err != nil {
				t.Fatalf("seed %d: traced AST run: %v", seed, err)
			}
		}
		tablePaths += evaluatingTables(traced, tableGuards(net))

		ir, err := core.Run(net, inj, init, opts)
		if err != nil {
			t.Fatalf("seed %d: compiled run: %v", seed, err)
		}

		msgs := orTreeMsgs(net)
		ref, err := core.Run(withOrTreeGuards(net), inj, init, opts)
		if err != nil {
			t.Fatalf("seed %d: compiled (Or-tree) run: %v", seed, err)
		}
		if got := fingerprint(renameOrTreeMsgs(ref, msgs)); got != want {
			t.Fatalf("seed %d: Or-tree compiled result differs from AST:\n--- AST ---\n%s--- compiled ---\n%s",
				seed, diffHead(want, got), diffHead(got, want))
		}
		if got, wantObs := obsFingerprint(ir), obsFingerprint(ast); got != wantObs {
			t.Fatalf("seed %d: interval-table compiled result differs from AST:\n--- AST ---\n%s--- compiled ---\n%s",
				seed, diffHead(wantObs, got), diffHead(got, wantObs))
		}
		if ast.Stats.Paths == 0 {
			t.Fatalf("seed %d: no paths explored", seed)
		}
		malformedAST += failingOnMalformedTables(ast)
		malformedIR += failingOnMalformedTables(ir)
	}
	t.Logf("%d paths evaluate a table guard; %d (AST) and %d (compiled) fail on a malformed table", tablePaths, malformedAST, malformedIR)
	if tablePaths < minTablePaths {
		t.Errorf("%d paths evaluate a table guard, want at least %d", tablePaths, minTablePaths)
	}
	if malformedAST == 0 || malformedIR == 0 {
		t.Errorf("paths failing on a malformed table: %d (AST), %d (compiled); want at least one in each", malformedAST, malformedIR)
	}
}

// tableGuards renders every Constrain and If in net's port code whose
// condition is a table, as a trace line renders the instruction.
func tableGuards(net *core.Network) map[string]bool {
	guards := map[string]bool{}
	eachInstr(net, func(_ string, ins sefl.Instr) {
		var c sefl.Cond
		switch v := ins.(type) {
		case sefl.Constrain:
			c = v.C
		case sefl.If:
			c = v.C
		}
		if _, ok := c.(sefl.Table); ok {
			guards[fmt.Sprint(ins)] = true
		}
	})
	return guards
}

// orTreeMsgs maps each rendering that the Or-tree withOrTreeGuards writes
// for net's tables moves to the rendering of the tables themselves: the
// trace line of every instruction with a table in it, and the failure
// message (prog.UnsatMsg) of every such Constrain. A table renders as its
// span table and its Or-tree as the tree, so only the text differs. Read
// it before the rewrite. internal/dist's orTreeMsgs keeps the same rule,
// so both reference suites rename the same lines: a malformed table stays
// a table in the reference and fails with Table.Check's error, which no
// rename touches.
func orTreeMsgs(net *core.Network) map[string]string {
	msgs := map[string]string{}
	eachInstr(net, func(elem string, ins sefl.Instr) {
		tree := orTreeInstr(ins)
		if line, treeLine := fmt.Sprintf("%s: %s", elem, ins), fmt.Sprintf("%s: %s", elem, tree); line != treeLine {
			msgs[treeLine] = line
		}
		if c, ok := ins.(sefl.Constrain); ok {
			if msg, treeMsg := prog.UnsatMsg(c.C), prog.UnsatMsg(tree.(sefl.Constrain).C); msg != treeMsg {
				msgs[treeMsg] = msg
			}
		}
	})
	return msgs
}

// renameOrTreeMsgs rewrites in place each failure message and trace line of
// res that msgs names, and returns res: the Or-tree reference's renderings
// renamed to its tables', so it compares with the tables' runs.
func renameOrTreeMsgs(res *core.Result, msgs map[string]string) *core.Result {
	for _, p := range res.Paths {
		if m, ok := msgs[p.FailMsg]; ok {
			p.FailMsg = m
		}
		for i, line := range p.Trace {
			if m, ok := msgs[line]; ok {
				p.Trace[i] = m
			}
		}
	}
	return res
}

// eachInstr calls fn on every instruction but a Block in net's port code,
// with its element's name: each one a trace line can render.
func eachInstr(net *core.Network, fn func(elem string, ins sefl.Instr)) {
	var walk func(elem string, ins sefl.Instr)
	walk = func(elem string, ins sefl.Instr) {
		switch v := ins.(type) {
		case sefl.Block:
			for _, sub := range v.Is {
				walk(elem, sub)
			}
			return
		case sefl.If:
			walk(elem, v.Then)
			walk(elem, v.Else)
		}
		fn(elem, ins)
	}
	for _, e := range net.Elements() {
		for _, out := range []bool{false, true} {
			n := e.NumIn
			if out {
				n = e.NumOut
			}
			for p := core.WildcardPort; p < n; p++ {
				if code, ok := e.Code(p, out); ok {
					walk(e.Name, code)
				}
			}
		}
	}
}

// evaluatingTables counts the paths of a traced run whose trace names one of
// the table guards: the table's field is allocated and assigned before any
// generated code runs, so a path that reaches such a guard evaluates it.
func evaluatingTables(res *core.Result, guards map[string]bool) int {
	n := 0
	for _, p := range res.Paths {
		if slices.ContainsFunc(p.Trace, func(line string) bool {
			_, ins, _ := strings.Cut(line, ": ")
			return guards[ins]
		}) {
			n++
		}
	}
	return n
}

// failingOnMalformedTables counts the paths that failed with Table.Check's
// message.
func failingOnMalformedTables(res *core.Result) int {
	n := 0
	for _, p := range res.Paths {
		if strings.HasPrefix(p.FailMsg, "sefl: table ") {
			n++
		}
	}
	return n
}

// TestDifferentialWorkers runs a second seed set of random programs without
// tracing: compiled results must stay byte-identical to the AST reference on
// every observable, and repeating a run on the same network must reproduce
// its full fingerprint, constraint chain included.
func TestDifferentialWorkers(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		g := newGen(int64(1000 + seed))
		net, inj := g.network()
		init := g.inject()
		opts := core.Options{MaxHops: 48, MaxPaths: 1 << 14}

		astOpts := opts
		astOpts.ASTInterp = true
		ast, err := core.Run(net, inj, init, astOpts)
		if err != nil {
			t.Fatalf("seed %d: AST run: %v", seed, err)
		}
		res, err := core.Run(net, inj, init, opts)
		if err != nil {
			t.Fatalf("seed %d: compiled run: %v", seed, err)
		}
		if got, want := obsFingerprint(res), obsFingerprint(ast); got != want {
			t.Errorf("seed %d: compiled result differs from the AST reference:\n%s", seed, diffHead(want, got))
		}
		again, err := core.Run(net, inj, init, opts)
		if err != nil {
			t.Fatalf("seed %d: repeated compiled run: %v", seed, err)
		}
		if got, want := fingerprint(again), fingerprint(res); got != want {
			t.Errorf("seed %d: repeated run's full fingerprint differs:\n%s", seed, diffHead(want, got))
		}
	}
}

// TestDifferentialDatasets pins byte-identity of the two engines on the
// real evaluation workloads (the paper's networks), not just generated
// programs: department office/inbound, Stanford-like backbone, Split-TCP
// scenarios, and the fork-heavy microbench topology.
func TestDifferentialDatasets(t *testing.T) {
	type workload struct {
		name   string
		net    *core.Network
		inject core.PortRef
		packet sefl.Instr
		opts   core.Options
	}
	build := func() []workload {
		var ws []workload
		d := datasets.NewDepartment(datasets.DepartmentConfig{
			NumAccessSwitches: 3, HostsPerSwitch: 24, Routes: 40, Seed: 5})
		ws = append(ws,
			workload{"department office", d.Net, core.PortRef{Elem: "asw0", Port: 1}, d.OfficePacket(false), core.Options{MaxHops: 64}},
			workload{"department inbound", d.Net, core.PortRef{Elem: "exit", Port: 1}, sefl.NewTCPPacket(), core.Options{MaxHops: 64}},
		)
		bb := datasets.StanfordBackbone(6, 50)
		ws = append(ws, workload{"backbone", bb.Net, core.PortRef{Elem: bb.Zones[0], Port: 2}, sefl.NewIPPacket(), core.Options{}})
		stcp := datasets.NewSplitTCP(datasets.SplitTCPConfig{MTUDrop: true, Tunnel: true, ProxyRewritesMAC: true})
		ws = append(ws, workload{"splittcp", stcp, core.PortRef{Elem: "client", Port: 0}, datasets.SplitTCPClientPacket(), core.Options{MaxHops: 64}})
		fh, fhInject := datasets.ForkHeavy(8, 3, 4)
		return append(ws, workload{"forkheavy", fh, fhInject, sefl.NewTCPPacket(), core.Options{MaxHops: 1 << 12}})
	}
	ws, ors := build(), build()

	for i, w := range ws {
		astOpts := w.opts
		astOpts.ASTInterp = true
		ast, err := core.Run(w.net, w.inject, w.packet, astOpts)
		if err != nil {
			t.Fatalf("%s: AST run: %v", w.name, err)
		}
		ref, err := core.Run(withOrTreeGuards(ors[i].net), w.inject, w.packet, w.opts)
		if err != nil {
			t.Fatalf("%s: compiled (Or-tree) run: %v", w.name, err)
		}
		ir, err := core.Run(w.net, w.inject, w.packet, w.opts)
		if err != nil {
			t.Fatalf("%s: compiled run: %v", w.name, err)
		}
		if ast.Stats.Paths == 0 {
			t.Fatalf("%s: no paths explored", w.name)
		}
		if want, got := fingerprint(ast), fingerprint(renameOrTreeMsgs(ref, orTreeMsgs(w.net))); want != got {
			t.Errorf("%s: Or-tree compiled result differs from AST:\n%s", w.name, diffHead(want, got))
		}
		if want, got := obsFingerprint(ast), obsFingerprint(ir); want != got {
			t.Errorf("%s: interval-table compiled result differs from AST:\n%s", w.name, diffHead(want, got))
		}
	}
}

// TestDifferentialGuardModesWorkers is the interval-table acceptance
// property over the real datasets: interval-table execution must match the
// Or-tree reference (the same network through withOrTreeGuards) on every
// observable (results, stats, traces, symbol IDs), and each must reproduce
// its own full fingerprint, constraint chain included, when run again.
func TestDifferentialGuardModesWorkers(t *testing.T) {
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
		return []workload{
			{"department", d.Net, core.PortRef{Elem: "asw0", Port: 1}, d.OfficePacket(false), core.Options{MaxHops: 64}},
			{"backbone", bb.Net, core.PortRef{Elem: bb.Zones[0], Port: 2}, sefl.NewIPPacket(), core.Options{}},
			{"forkheavy", fh, fhInject, sefl.NewTCPPacket(), core.Options{MaxHops: 1 << 12}},
		}
	}
	ws, ors := build(), build()
	for i, w := range ws {
		var wantObs string
		for _, orTree := range []bool{true, false} {
			net := w.net
			if orTree {
				net = withOrTreeGuards(ors[i].net)
			}
			var runs [2]*core.Result
			for i := range runs {
				res, err := core.Run(net, w.inject, w.packet, w.opts)
				if err != nil {
					t.Fatalf("%s ortree=%v: %v", w.name, orTree, err)
				}
				runs[i] = res
			}
			if want, got := fingerprint(runs[0]), fingerprint(runs[1]); got != want {
				t.Errorf("%s ortree=%v: repeated run's full fingerprint differs:\n%s", w.name, orTree, diffHead(want, got))
			}
			if orTree {
				wantObs = obsFingerprint(renameOrTreeMsgs(runs[0], orTreeMsgs(w.net)))
			} else if got := obsFingerprint(runs[0]); got != wantObs {
				t.Errorf("%s: interval-table observables differ from Or-tree reference:\n%s",
					w.name, diffHead(wantObs, got))
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite "+vlanPairDigestFile+" from the current results")

// vlanPairDigestFile holds the SHA-256 of TestVLANPairGuardObservables'
// observable fingerprint.
const vlanPairDigestFile = "testdata/vlan_pair_digest.txt"

// vlanPairNetwork is a two-switch fabric whose egress guards match (VLAN,
// MAC) pairs, Or(And(VlanID == v, EtherDst == m), ...) per output port: the
// shape a VLAN-aware MAC table yields. sw0 forwards to hosts h0, h1 and, on
// port 2, to sw1, which forwards to h2 and h3.
func vlanPairNetwork() *core.Network {
	type pair struct{ vlan, mac uint64 }
	guard := func(ps ...pair) sefl.Instr {
		cs := make([]sefl.Cond, len(ps))
		for i, p := range ps {
			cs[i] = sefl.AndC(
				sefl.Eq(sefl.Ref{LV: sefl.VlanID}, sefl.CW(p.vlan, 16)),
				sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(p.mac, sefl.MACWidth)),
			)
		}
		return sefl.Constrain{C: sefl.OrC(cs...)}
	}
	net := core.NewNetwork()
	sw0 := net.AddElement("sw0", "switch", 1, 3)
	sw0.SetInCode(core.WildcardPort, sefl.Fork{Ports: []int{0, 1, 2}})
	sw0.SetOutCode(0, guard(pair{10, 0xa0}, pair{10, 0xa1}, pair{20, 0xa0}, pair{30, 0xa2}))
	sw0.SetOutCode(1, guard(pair{10, 0xb0}, pair{20, 0xb1}, pair{20, 0xb2}, pair{30, 0xb3}))
	sw0.SetOutCode(2, guard(pair{10, 0xc0}, pair{10, 0xc1}, pair{20, 0xc0}, pair{20, 0xc2}, pair{30, 0xc3}))
	sw1 := net.AddElement("sw1", "switch", 1, 2)
	sw1.SetInCode(core.WildcardPort, sefl.Fork{Ports: []int{0, 1}})
	sw1.SetOutCode(0, guard(pair{10, 0xc0}, pair{10, 0xc1}, pair{20, 0xc0}, pair{20, 0xd0}))
	sw1.SetOutCode(1, guard(pair{20, 0xc2}, pair{30, 0xc3}, pair{30, 0xc4}, pair{40, 0xc2}))
	for i := 0; i < 4; i++ {
		net.AddElement(fmt.Sprintf("h%d", i), "host", 1, 0).SetInCode(0, sefl.NoOp{})
	}
	net.MustLink("sw0", 0, "h0", 0)
	net.MustLink("sw0", 1, "h1", 0)
	net.MustLink("sw0", 2, "sw1", 0)
	net.MustLink("sw1", 0, "h2", 0)
	net.MustLink("sw1", 1, "h3", 0)
	return net
}

// vlanPacket is a tagged L2 frame with a symbolic destination MAC and the
// given VLAN ID.
func vlanPacket(vlan sefl.Expr) sefl.Instr {
	field := func(h sefl.Hdr, e sefl.Expr) sefl.Instr {
		return sefl.Seq(sefl.Allocate{LV: h, Size: h.Size}, sefl.Assign{LV: h, E: e})
	}
	return sefl.Seq(
		sefl.CreateTag{Name: sefl.TagStart, E: sefl.C(0)},
		sefl.CreateTag{Name: sefl.TagL2, E: sefl.TagVal{Tag: sefl.TagStart}},
		sefl.CreateTag{Name: sefl.TagVLAN, E: sefl.TagVal{Tag: sefl.TagL2, Rel: sefl.L2Bits}},
		sefl.CreateTag{Name: sefl.TagEnd, E: sefl.TagVal{Tag: sefl.TagVLAN, Rel: sefl.VLANBits}},
		field(sefl.EtherDst, sefl.Symbolic{W: sefl.MACWidth, Name: "EtherDst"}),
		field(sefl.EtherSrc, sefl.Symbolic{W: sefl.MACWidth, Name: "EtherSrc"}),
		field(sefl.EtherProto, sefl.CW(sefl.EtherTypeVLAN, 16)),
		field(sefl.VlanID, vlan),
		field(sefl.VlanProto, sefl.CW(sefl.EtherTypeIPv4, 16)),
	)
}

// TestVLANPairGuardObservables pins what a (VLAN, MAC) pair guard yields,
// with the VLAN symbolic, concrete, and concrete but in no row: its
// observables (obsFingerprint) match the committed digest. A pair guard is
// a hand-written Or over two fields, which stays an Or-tree.
func TestVLANPairGuardObservables(t *testing.T) {
	var b strings.Builder
	for _, vlan := range []sefl.Expr{sefl.Symbolic{W: 16, Name: "VlanID"}, sefl.CW(20, 16), sefl.CW(40, 16)} {
		res, err := core.Run(vlanPairNetwork(), core.PortRef{Elem: "sw0", Port: 0}, vlanPacket(vlan), core.Options{MaxHops: 16})
		if err != nil {
			t.Fatalf("vlan %v: %v", vlan, err)
		}
		b.WriteString(obsFingerprint(res))
	}
	sum := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
	if *update {
		if err := os.WriteFile(vlanPairDigestFile, []byte(sum+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(vlanPairDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(want)) != sum {
		t.Errorf("observable digest %s, committed %s:\n%s", sum, strings.TrimSpace(string(want)), b.String())
	}
}

// withOrTreeGuards rewrites, in place, every table guard in the code of
// net's ports as the Or-tree it stands for (sefl.Table.Or), and returns
// net: the reference that interval-table lowering is compared against. A
// hand-written Or compiles as a tree, so the rewritten network runs no span
// table. A malformed table stays as it is: it fails the path in every
// executor. A table renders as its span table and its Or-tree as the tree,
// in trace lines and failure messages, so the suites rename the reference's
// renderings (orTreeMsgs, renameOrTreeMsgs) before comparing.
func withOrTreeGuards(net *core.Network) *core.Network {
	for _, e := range net.Elements() {
		for _, out := range []bool{false, true} {
			n := e.NumIn
			if out {
				n = e.NumOut
			}
			for p := core.WildcardPort; p < n; p++ {
				code, ok := e.Code(p, out)
				if !ok {
					continue
				}
				if out {
					e.SetOutCode(p, orTreeInstr(code))
				} else {
					e.SetInCode(p, orTreeInstr(code))
				}
			}
		}
	}
	return net
}

// orTreeInstr is ins with every table guard written as its Or-tree.
func orTreeInstr(ins sefl.Instr) sefl.Instr {
	switch v := ins.(type) {
	case sefl.Constrain:
		return sefl.Constrain{C: orTreeCond(v.C)}
	case sefl.If:
		return sefl.If{C: orTreeCond(v.C), Then: orTreeInstr(v.Then), Else: orTreeInstr(v.Else)}
	case sefl.Block:
		is := make([]sefl.Instr, len(v.Is))
		for i, sub := range v.Is {
			is[i] = orTreeInstr(sub)
		}
		return sefl.Block{Is: is}
	}
	return ins
}

func orTreeCond(c sefl.Cond) sefl.Cond {
	switch v := c.(type) {
	case sefl.Table:
		if v.Check() != nil {
			return v
		}
		return v.Or()
	case sefl.CAnd:
		cs := make([]sefl.Cond, len(v.Cs))
		for i, sub := range v.Cs {
			cs[i] = orTreeCond(sub)
		}
		return sefl.CAnd{Cs: cs}
	case sefl.COr:
		cs := make([]sefl.Cond, len(v.Cs))
		for i, sub := range v.Cs {
			cs[i] = orTreeCond(sub)
		}
		return sefl.COr{Cs: cs}
	case sefl.CNot:
		return sefl.CNot{C: orTreeCond(v.C)}
	}
	return c
}

// diffHead returns the first line where a differs from b, for readable
// failures.
func diffHead(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			lo := i - 1
			if lo < 0 {
				lo = 0
			}
			hi := i + 2
			if hi > len(al) {
				hi = len(al)
			}
			return fmt.Sprintf("(first divergence at line %d)\n%s\n", i, strings.Join(al[lo:hi], "\n"))
		}
	}
	return a
}
