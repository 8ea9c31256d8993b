package symnet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/expr"
	"symnet/internal/models"
	"symnet/internal/prog"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// coldAllocBudget is the committed budget of TestColdCompileAllocBudget. The
// 20,000-route model and Compile made 2.79 allocations per route (55,800)
// while the router wrote its port guards as SEFL Or-trees — one object per
// route, two per exclusion — and the compiler parsed them back into rows;
// 557 once the model wrote tables and the compiler lowered their rows
// as they are. What is left is per port and per program, not per route.
const coldAllocBudget = 1000

// TestColdCompileAllocBudget keeps the cold path flat in the number of routes
// without reading a clock: modelling a 20,000-route egress router and
// compiling it must stay under a fixed number of allocations. Anything that
// goes back to an object per route — a tree node, a set, a map entry, a
// condition node — shows here.
func TestColdCompileAllocBudget(t *testing.T) {
	const routes = 20000
	fib := datasets.CoreFIB(routes, 16, 1)
	avg := testing.AllocsPerRun(3, func() {
		net := core.NewNetwork()
		if err := models.Router(net.AddElement("R", "router", 1, 16), fib, models.Egress); err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(net, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold model + Compile: %.0f allocations for %d routes (budget %d)", avg, routes, coldAllocBudget)
	if avg > coldAllocBudget {
		t.Fatalf("%.0f allocations, budget %d", avg, coldAllocBudget)
	}
}

// defaultPortSlack bounds how many more allocations TestDefaultRouteRunFlat
// lets a Run make at 4,096 exclusions than at 64. A guard asserted one
// negated prefix at a time costs at least three per exclusion (over 12,000
// here); a lowered one costs the same at any size.
const defaultPortSlack = 64

// TestDefaultRouteRunFlat keeps the hot path flat in the size of a
// default-route port's exclusion list, without reading a clock: one warm
// Session.Run through a router whose default port excludes k more-specific
// prefixes must allocate within a constant of the k = 64 run.
func TestDefaultRouteRunFlat(t *testing.T) {
	allocs := func(k int) float64 {
		fib := tables.FIB{{Prefix: 0, Len: 0, Port: 1}}
		for i := 0; i < k; i++ {
			fib = append(fib, tables.Route{Prefix: uint64(10)<<24 | uint64(i)<<8, Len: 24, Port: 0})
		}
		net := core.NewNetwork()
		if err := models.Router(net.AddElement("R", "router", 1, 2), fib, models.Egress); err != nil {
			t.Fatal(err)
		}
		for p, name := range []string{"H0", "H1"} {
			net.AddElement(name, "sink", 1, 0).SetInCode(0, sefl.NoOp{})
			net.MustLink("R", p, name, 0)
		}
		sess, err := Compile(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := sess.Run(core.PortRef{Elem: "R", Port: 0}, sefl.NewIPPacket())
			if err != nil || res.Stats.Delivered != 2 {
				t.Fatalf("k=%d: %v, delivered %d, want 2", k, err, res.Stats.Delivered)
			}
		}
		run() // compile outside the count
		return testing.AllocsPerRun(5, run)
	}
	base := allocs(64)
	for _, k := range []int{512, 4096} {
		n := allocs(k)
		t.Logf("warm Run, default port excluding %d prefixes: %.0f allocations (%.0f at 64)", k, n, base)
		if n > base+defaultPortSlack {
			t.Fatalf("k=%d: %.0f allocations against %.0f at k=64, slack %d", k, n, base, defaultPortSlack)
		}
	}
}

// deptAllocsPerHop is the committed budget of TestDepartmentRunAllocsPerHop.
// A warm department Run allocated 60.2 per hop while the ASA's For pipelines
// ran on the IR, a field write cost two allocations and every visit built
// successor slices; 42.7 once none of that was left. 27.8 once a task's
// scaffolding (run, allocator, collector, task, successor slice) lived per
// exploration, a fork allocated one box for its memory and solver headers,
// and the solver narrowed domains without building a set per assertion.
// 24.6 once a branch or an egress port whose guard the domains refute
// cloned nothing (solver.Context.Refutes decides first) and a departure's
// refuted ports shared one sealed memory. 19.0 once every table guard, one
// entry long included, lowered to its span table and so asserted as one
// expr.InSet the solver refutes without cloning. 13.7 once the network
// kept the packet its injection code builds and a run cloned it.
const deptAllocsPerHop = 16

// deptBytesPerHop is the byte budget of TestDepartmentRunAllocsPerHop. The
// warm department Run allocated 1 860 bytes per hop while a path's solver
// context inserted every symbol it constrained into its union-find, a fork
// copied 416 bytes of headers and each refuted port's path kept a context
// of its own; 1 455 once none of that was left (1 481 under -race). 1 251
// (1 281 under -race) once a run cloned the network's injected packet, a
// fork copied 248 bytes of headers and a write's layer fit 48 bytes.
const deptBytesPerHop = 1350

// TestDepartmentRunAllocsPerHop keeps the hot path lean without reading a
// clock: one warm Session.Run of the office packet from asw0.in[1] must stay
// under a fixed number of allocations and of bytes per port visit. A visit that goes back
// to allocating scaffolding — an IR fallback, a per-visit evaluator, a
// successor slice per hop, a history node per write — shows here.
func TestDepartmentRunAllocsPerHop(t *testing.T) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 8, Routes: 12, Seed: 5})
	sess, err := Compile(d.Net, Options{MaxHops: 64})
	if err != nil {
		t.Fatal(err)
	}
	packet := d.OfficePacket(false)
	hops := 0
	run := func() {
		res, err := sess.Run(PortRef{Elem: "asw0", Port: 1}, packet)
		if err != nil {
			t.Fatal(err)
		}
		hops = res.Stats.Hops
	}
	run() // compile the injection-time For bodies outside the count
	perHop := testing.AllocsPerRun(5, run) / float64(hops)
	bytesPerHop := bytesPerRun(5, run) / float64(hops)
	t.Logf("warm department Run: %.1f allocations and %.0f bytes per hop over %d hops (budgets %d and %d)", perHop, bytesPerHop, hops, deptAllocsPerHop, deptBytesPerHop)
	if perHop > deptAllocsPerHop {
		t.Fatalf("%.1f allocations per hop, budget %d", perHop, deptAllocsPerHop)
	}
	if bytesPerHop > deptBytesPerHop {
		t.Fatalf("%.0f bytes per hop, budget %d", bytesPerHop, deptBytesPerHop)
	}
}

// bytesPerRun returns the bytes f allocates per call, averaged over runs
// calls after a warm-up call, with GOMAXPROCS at 1 as testing.AllocsPerRun
// counts allocations.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// forkAllocsPerPath is the committed budget of TestForkHeavyAllocsPerPath. A
// warm fork-heavy Run allocated 14.7 per delivered path while a fork cost
// three objects (State, Mem, Context) and every task its own scaffolding;
// 7.0 once a fork was a State and one box.
const forkAllocsPerPath = 9

// forkBytesPerPath is the byte budget of TestForkHeavyAllocsPerPath. A warm
// fork-heavy Run allocated 978 bytes per delivered path while a fork's box
// was 416 bytes; 850 once it was 288; 813 once it was 248 and a write's
// layer fit 48 bytes.
const forkBytesPerPath = 850

// TestForkHeavyAllocsPerPath keeps forking cheap without reading a clock: one
// warm Session.Run over the fork-heavy network (64 bindings, 4 forks of fan
// 8) must stay under a fixed number of allocations and of bytes per
// delivered path. A fork
// that goes back to allocating its headers one by one, or a step that goes
// back to allocating its own scaffolding, shows here.
func TestForkHeavyAllocsPerPath(t *testing.T) {
	net, inject := datasets.ForkHeavy(64, 4, 8)
	sess, err := Compile(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	run := func() {
		res, err := sess.Run(inject, sefl.NewIPPacket())
		if err != nil {
			t.Fatal(err)
		}
		delivered = res.Stats.Delivered
	}
	run() // compile outside the count
	if delivered != 4096 {
		t.Fatalf("%d delivered paths, want 4096", delivered)
	}
	perPath := testing.AllocsPerRun(5, run) / float64(delivered)
	bytesPerPath := bytesPerRun(5, run) / float64(delivered)
	t.Logf("warm fork-heavy Run: %.1f allocations and %.0f bytes per delivered path over %d paths (budgets %d and %d)", perPath, bytesPerPath, delivered, forkAllocsPerPath, forkBytesPerPath)
	if perPath > forkAllocsPerPath {
		t.Fatalf("%.1f allocations per delivered path, budget %d", perPath, forkAllocsPerPath)
	}
	if bytesPerPath > forkBytesPerPath {
		t.Fatalf("%.0f bytes per delivered path, budget %d", bytesPerPath, forkBytesPerPath)
	}
}

// TestCompileAdoptsLPMSpans: a router's table guard, compiled with the span
// table tables.LPMRows wrote beside its rows, compiles to the program the
// same guard gives without it (programImage: dump, tables and fingerprints,
// trace lines and failure messages), and the compiler adopted the table the
// guard carried. The table never crosses the wire: both networks'
// core.EncodePrograms output gob-encodes to the same bytes, and a fleet
// member, which merges its tables from the rows, compiles the same programs
// too. That is checked on the cold-path core FIB (both router styles that
// write tables) and on the department.
func TestCompileAdoptsLPMSpans(t *testing.T) {
	cold := func(style models.Style) func() *core.Network {
		fib := datasets.CoreFIB(62500, 16, 1)
		return func() *core.Network {
			net := core.NewNetwork()
			if err := models.Router(net.AddElement("R", "router", 1, 16), fib, style); err != nil {
				t.Fatal(err)
			}
			return net
		}
	}
	for _, tc := range []struct {
		name  string
		build func() *core.Network
	}{
		{"cold egress", cold(models.Egress)},
		{"cold ingress", cold(models.Ingress)},
		{"department", func() *core.Network { return datasets.NewDepartment(datasets.DefaultDepartment()).Net }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			with, without := tc.build(), tc.build()
			carried := map[core.PortRef][]*expr.SpanTable{}
			for _, e := range without.Elements() {
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
						bare, spans := stripSpans(code, nil)
						if len(spans) == 0 {
							continue
						}
						ew, _ := with.Element(e.Name)
						codeWith, _ := ew.Code(p, out)
						_, carried[core.PortRef{Elem: e.Name, Port: p, Out: out}] = stripSpans(codeWith, nil)
						if out {
							e.SetOutCode(p, bare)
						} else {
							e.SetInCode(p, bare)
						}
					}
				}
			}
			if len(carried) == 0 {
				t.Fatal("no guard carries a span table")
			}
			wa, wb := encodePrograms(t, with), encodePrograms(t, without)
			if !bytes.Equal(gobBytes(t, wa), gobBytes(t, wb)) {
				t.Fatal("the wire bytes differ with and without the carried span tables")
			}
			wnet, err := core.EncodeNetwork(with)
			if err != nil {
				t.Fatal(err)
			}
			member, err := core.DecodeNetwork(wnet)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.InstallPrograms(member, wa); err != nil {
				t.Fatal(err)
			}
			core.Warm(with) // encoding compiles nothing; a member compiles at install
			core.Warm(without)
			adopted := 0
			for _, we := range wa {
				var progs [3]*prog.Program
				for i, net := range []*core.Network{with, without, member} {
					e, _ := net.Element(we.Elem)
					progs[i], _ = e.CachedProgram(we.Port, we.Out)
				}
				want := programImage(progs[0])
				for i, name := range []string{"without the carried tables", "on a member"} {
					if got := programImage(progs[i+1]); got != want {
						t.Fatalf("%s port %d: the program %s differs:\n--- with\n%.2000s\n--- %s\n%.2000s", we.Elem, we.Port, name, want, name, got)
					}
				}
				for _, it := range prog.GuardTables(progs[0]) {
					if slices.Contains(carried[core.PortRef{Elem: we.Elem, Port: we.Port, Out: we.Out}], it.Table) {
						adopted++
					}
				}
			}
			if adopted == 0 {
				t.Fatal("no lowered guard adopted the table its guard carried")
			}
			t.Logf("%d programs, %d lowered guards adopted their carried tables", len(wa), adopted)
		})
	}
}

// programImage renders everything a run reads of a program: its IR dump,
// each lowered guard's span table (width and spans, which fix its
// fingerprint), and every op's trace line and Constrain failure message. Two
// programs with equal images run identically.
func programImage(p *prog.Program) string {
	var b strings.Builder
	b.WriteString(p.String())
	for _, it := range prog.GuardTables(p) {
		fmt.Fprintf(&b, "table w%d %v\n", it.Table.Width(), it.Table.Spans())
	}
	for i := range p.Ops {
		fmt.Fprintf(&b, "%d: %s\n", i, p.TraceLine(int32(i)))
		if p.Ops[i].Kind == prog.OpConstrain {
			fmt.Fprintf(&b, "%d: %s\n", i, p.ConstrainFailMsg(int32(i)))
		}
	}
	return b.String()
}

// stripSpans returns code with the span table dropped from the table guards
// the router models write — an egress port's Constrain, an ingress port's
// If chain — and appends the dropped tables to spans.
func stripSpans(code sefl.Instr, spans []*expr.SpanTable) (sefl.Instr, []*expr.SpanTable) {
	strip := func(c sefl.Cond) sefl.Cond {
		if tb, ok := c.(sefl.Table); ok && tb.Spans != nil {
			spans = append(spans, tb.Spans)
			tb.Spans = nil
			return tb
		}
		return c
	}
	switch v := code.(type) {
	case sefl.Constrain:
		return sefl.Constrain{C: strip(v.C)}, spans
	case sefl.If:
		v.C = strip(v.C)
		v.Else, spans = stripSpans(v.Else, spans)
		return v, spans
	}
	return code, spans
}

func encodePrograms(t *testing.T, net *core.Network) []core.WireProgramEntry {
	t.Helper()
	w, err := core.EncodePrograms(net)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
