package churn

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"symnet/internal/dist"
	"symnet/internal/expr"
	"symnet/internal/prog"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// TestDeltaPatchesEqualFreshCompile: on every route and MAC delta of the
// department and backbone scripts, each router or switch port whose lowered
// guard was patched holds the span table a fresh compile merges from the
// port's new rows (rebuilt here from the table, without a carried span
// table), and its program equals that fresh compile (programImage: the IR
// dump, the guard's span table and fingerprint, the rendered trace lines and
// failure messages). A router's port holds the
// very table its installed guard carried (tables.LPMRows's sweep).
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
				old := map[int]*expr.SpanTable{}
				for p := range e.NumOut {
					if cp, ok := e.CachedProgram(p, true); ok {
						if its := prog.GuardTables(cp); len(its) == 1 {
							old[p] = its[0].Table
						}
					}
				}
				if _, err := svc.apply(d); err != nil {
					t.Fatalf("delta %d (%s): %v", di, d, err)
				}
				isFIB := d.Prefix != ""
				rows, field := freshRows(svc, d.Elem, e.NumOut, isFIB)
				for p, was := range old {
					cp, ok := e.CachedProgram(p, true)
					if !ok {
						continue
					}
					its := prog.GuardTables(cp)
					if len(its) != 1 || its[0].Table == was {
						continue
					}
					fresh := prog.Compile(sefl.Constrain{C: sefl.Table{F: field, Rows: rows[p]}}, e.Name, e.Instance, cp.Label)
					got, want := its[0].Table, prog.GuardTables(fresh)[0].Table
					if !slices.Equal(got.Spans(), want.Spans()) || got.Fp() != want.Fp() {
						t.Fatalf("delta %d (%s) port %d: resident table %v, a fresh build %v", di, d, p, got, want)
					}
					if a, b := programImage(cp), programImage(fresh); a != b {
						t.Fatalf("delta %d (%s) port %d: the patched program is not a fresh compile's:\n--- patched\n%s--- fresh\n%s", di, d, p, a, b)
					}
					code, _ := e.Code(p, true)
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
