package models_test

import (
	"slices"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/expr"
	"symnet/internal/models"
	"symnet/internal/prog"
	"symnet/internal/tables"
)

// egressTables compiles a router element's programs and returns the span
// tables of one output port's guard.
func egressTables(t *testing.T, net *core.Network, elem string, port int) []*prog.ITable {
	t.Helper()
	core.Warm(net)
	e, _ := net.Element(elem)
	p, ok := e.CachedProgram(port, true)
	if !ok {
		t.Fatalf("%s.out[%d]: no compiled program", elem, port)
	}
	return prog.GuardTables(p)
}

// TestDefaultRoutePortIsATable: a port carrying only the default route is a
// one-row table whatever the number of more-specifics elsewhere it excludes,
// none included, and its span table is the address space minus theirs.
func TestDefaultRoutePortIsATable(t *testing.T) {
	for _, k := range []int{0, 2, 3, 64} {
		fib := tables.FIB{{Prefix: 0, Len: 0, Port: 1}}
		for i := 0; i < k; i++ {
			fib = append(fib, tables.Route{Prefix: uint64(10)<<24 | uint64(i)<<8, Len: 24, Port: 0})
		}
		net := core.NewNetwork()
		if err := models.Router(net.AddElement("R", "router", 1, 2), fib, models.Egress); err != nil {
			t.Fatal(err)
		}
		its := egressTables(t, net, "R", 1)
		if len(its) != 1 {
			t.Fatalf("k=%d: default-route port has %d tables, want 1", k, len(its))
		}
		// The k /24s are adjacent: one hole from 10.0.0.0.
		want := []expr.Span{{Lo: 0, Hi: expr.Mask(32)}}
		if k > 0 {
			want = []expr.Span{{Lo: 0, Hi: 10<<24 - 1}, {Lo: 10<<24 + uint64(k)<<8, Hi: expr.Mask(32)}}
		}
		if got := its[0].Table.Spans(); !slices.Equal(got, want) {
			t.Fatalf("k=%d: span table %v, want %v", k, its[0].Table, want)
		}
	}

	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 24, Routes: 40, Seed: 5})
	_, spans := tables.LPMRows(d.FIBs["m1"], 3)
	if its := egressTables(t, d.Net, "m1", 2); len(its) != 1 || !slices.Equal(its[0].Table.Spans(), spans[2].Spans()) {
		t.Fatalf("department m1.out[2] (the default route): %d tables, want one with the port's LPM span table", len(its))
	}
}
