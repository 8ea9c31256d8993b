package churn

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/expr"
	"symnet/internal/prog"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// TestDeltaPatchesEqualFreshCompile: on every route and MAC delta of the
// department and backbone scripts, each router or switch port whose guard
// changed holds new code whose program equals a fresh compile of the port's
// new rows (rebuilt here from the table, without a carried span table):
// programImage — the IR dump, each lowered guard's span table and
// fingerprint, the rendered trace lines and failure messages — and, for a
// lowered guard, the span table a fresh compile merges. A router's port
// holds the very table its installed guard carried (tables.LPMRows's
// sweep). The program the port held before the delta is left as it was:
// a compiled program is never mutated, a changed guard is new code.
func TestDeltaPatchesEqualFreshCompile(t *testing.T) {
	for _, fx := range []indexFixture{departmentIndexFixture(), backboneIndexFixture()} {
		t.Run(fx.name, func(t *testing.T) {
			svc := fx.build(t, dist.InProcess(1, nil))
			if err := svc.Init(); err != nil {
				t.Fatal(err)
			}
			patched := map[bool]int{} // by isFIB
			for di, d := range fx.script(t) {
				e, _ := svc.cfg.Net.Element(d.Elem)
				oldCode := make([]sefl.Instr, e.NumOut)
				oldProg := make([]*prog.Program, e.NumOut)
				oldImage := make([]string, e.NumOut)
				for p := range e.NumOut {
					oldCode[p], _ = e.Code(p, true)
					if cp, ok := e.CachedProgram(p, true); ok {
						oldProg[p], oldImage[p] = cp, programImage(cp)
					}
				}
				if _, err := svc.apply(d); err != nil {
					t.Fatalf("delta %d (%s): %v", di, d, err)
				}
				core.Warm(svc.cfg.Net)
				isFIB := d.Prefix != ""
				rows, field := freshRows(svc, d.Elem, e.NumOut, isFIB)
				for p := range e.NumOut {
					code, _ := e.Code(p, true)
					if g, ok := code.(sefl.Constrain); !ok || sameGuard(oldCode[p], g) {
						continue
					}
					cp, _ := e.CachedProgram(p, true)
					if was := oldProg[p]; was != nil && (cp == was || programImage(was) != oldImage[p]) {
						t.Fatalf("delta %d (%s) port %d: the program compiled from the old guard was reused or changed", di, d, p)
					}
					fresh := prog.Compile(sefl.Constrain{C: sefl.Table{F: field, Rows: rows[p]}}, e.Name, e.Instance, cp.Label)
					if a, b := programImage(cp), programImage(fresh); a != b {
						t.Fatalf("delta %d (%s) port %d: the port's program is not a fresh compile's:\n--- resident\n%s--- fresh\n%s", di, d, p, a, b)
					}
					its := prog.GuardTables(cp)
					if len(its) != 1 {
						continue
					}
					got, want := its[0].Table, prog.GuardTables(fresh)[0].Table
					if !slices.Equal(got.Spans(), want.Spans()) || got.Fp() != want.Fp() {
						t.Fatalf("delta %d (%s) port %d: resident table %v, a fresh build %v", di, d, p, got, want)
					}
					if isFIB && code.(sefl.Constrain).C.(sefl.Table).Spans != got {
						t.Fatalf("delta %d (%s) port %d: the resident table is not the one the guard carried", di, d, p)
					}
					patched[isFIB]++
				}
			}
			if patched[true] == 0 || fx.name == "department" && patched[false] == 0 {
				t.Fatalf("patched %d router and %d switch ports", patched[true], patched[false])
			}
			t.Logf("%d router and %d switch ports patched", patched[true], patched[false])
		})
	}
}

// TestDeltaPortCounts pins what a batch's port counts read: a delta on a
// port whose program a run compiled counts the port patched and recompiled
// (its resident program is dropped with the old code); a delta on a port no
// run has compiled counts it patched only.
func TestDeltaPortCounts(t *testing.T) {
	asw, agg := starTables()
	svc := NewService(Config{
		Net: buildStarNet(t, asw, agg),
		// One source, asw0's: agg's guards stop its paths short of asw1, so
		// no run compiles asw1's egress programs.
		Sources: []core.PortRef{{Elem: "asw0", Port: 1}},
		Targets: []string{"hsink0", "hsink1", "up"},
		Packet: sefl.Seq(
			sefl.NewTCPPacket(),
			sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(starUpMAC, sefl.MACWidth))},
		),
		Runner: dist.InProcess(1, nil),
	})
	for name, tbl := range asw {
		svc.RegisterSwitch(name, tbl)
	}
	svc.RegisterSwitch("agg", agg)
	if err := svc.Init(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		elem                string
		compiled            bool
		patched, recompiled int
	}{
		{"asw0", true, 1, 1},
		{"asw1", false, 1, 0},
	} {
		e, _ := svc.cfg.Net.Element(tc.elem)
		if _, ok := e.CachedProgram(1, true); ok != tc.compiled {
			t.Fatalf("%s.out[1] compiled before the delta: %v, want %v", tc.elem, ok, tc.compiled)
		}
		res, err := svc.apply(Delta{Elem: tc.elem, Op: OpInsert, MAC: "06:00:00:00:00:99", Port: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Action != actionPatched || res.PortsPatched != tc.patched || res.PortsRecompiled != tc.recompiled {
			t.Fatalf("delta on %s: action %s, ports patched %d, recompiled %d; want %s, %d, %d",
				tc.elem, res.Action, res.PortsPatched, res.PortsRecompiled, actionPatched, tc.patched, tc.recompiled)
		}
	}
	snap := svc.registry().Snapshot()
	if p, r := snap.Counters["churn.ports.patched"], snap.Counters["churn.ports.recompiled"]; p != 2 || r != 1 {
		t.Fatalf("churn.ports.patched = %d, .recompiled = %d; want 2 and 1", p, r)
	}
}

// freshRows returns each port's guard rows for the element's current table,
// built apart from churn's commit, and the field they guard: tables.LPMRows's
// rows on IPDst for a router, equality rows of the sorted MACs on EtherDst
// for a switch.
func freshRows(svc *Service, elem string, nout int, isFIB bool) ([][]expr.GuardRow, sefl.Hdr) {
	if isFIB {
		rows, _ := tables.LPMRows(svc.routers[elem], nout)
		return rows, sefl.IPDst
	}
	rows := make([][]expr.GuardRow, nout)
	for p, macs := range svc.switches[elem].ByPort() {
		for _, m := range macs {
			rows[p] = append(rows[p], expr.GuardRow{Kind: expr.GuardEq, V: m})
		}
	}
	return rows, sefl.EtherDst
}

// programImage renders everything a run reads of a program: its IR dump,
// each lowered guard's span table and fingerprint, and every op's trace line
// and Constrain failure message. Two programs with equal images run
// identically.
func programImage(p *prog.Program) string {
	var b strings.Builder
	b.WriteString(p.String())
	for _, it := range prog.GuardTables(p) {
		fmt.Fprintf(&b, "table %v %v\n", it.Table.Fp(), it.Table.Spans())
	}
	for i := range p.Ops {
		fmt.Fprintf(&b, "%d: %s\n", i, p.TraceLine(int32(i)))
		if p.Ops[i].Kind == prog.OpConstrain {
			fmt.Fprintf(&b, "%d: %s\n", i, p.ConstrainFailMsg(int32(i)))
		}
	}
	return b.String()
}
