package churn

import (
	"slices"
	"testing"

	"symnet/internal/dist"
	"symnet/internal/expr"
	"symnet/internal/prog"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// TestRouteDeltasAdoptSweepTables: on every route delta of the department
// and backbone scripts, each router port whose lowered guard changed holds
// the span table the new guard carried (tables.LPMRows's sweep), and that
// table is the one patching the old table inside the delta's address
// window with the new rows would have given (expr.SpanTable.PatchWindow,
// the path a switch's guard still takes).
func TestRouteDeltasAdoptSweepTables(t *testing.T) {
	for _, fx := range []indexFixture{departmentIndexFixture(), backboneIndexFixture()} {
		t.Run(fx.name, func(t *testing.T) {
			svc := fx.build(t, dist.InProcess(1, nil))
			if err := svc.Init(); err != nil {
				t.Fatal(err)
			}
			adopted := 0
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
				if d.Prefix == "" {
					continue
				}
				pfx, plen, err := tables.ParsePrefix(d.Prefix)
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := pfx, pfx|hostBits(plen, 32)
				rows, _ := tables.LPMRows(svc.routers[d.Elem], e.NumOut)
				for p, was := range old {
					cp, ok := e.CachedProgram(p, true)
					if !ok {
						continue
					}
					its := prog.GuardTables(cp)
					if len(its) != 1 || its[0].Table == was {
						continue
					}
					var repl []expr.Span
					for _, r := range rows[p] {
						if r.V <= hi && r.V|rowSpread(r, 32) >= lo {
							repl = append(repl, prog.RowSolutionSet(r, 32)...)
						}
					}
					got, want := its[0].Table, was.PatchWindow(lo, hi, repl)
					if !slices.Equal(got.Spans(), want.Spans()) || got.Fp() != want.Fp() {
						t.Fatalf("delta %d (%s) port %d: resident table %v, the window patch %v", di, d, p, got, want)
					}
					code, _ := e.Code(p, true)
					if guard, _ := code.(sefl.Constrain); guard.C.(sefl.Table).Spans != got {
						t.Fatalf("delta %d (%s) port %d: the resident table is not the one the guard carried", di, d, p)
					}
					adopted++
				}
			}
			if adopted == 0 {
				t.Fatal("no route delta changed a lowered guard")
			}
			t.Logf("%d port tables adopted", adopted)
		})
	}
}
