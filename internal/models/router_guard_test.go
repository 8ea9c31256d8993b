package models_test

import (
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
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
// one-row table once its exclusions make it one (rows plus exclusions, at
// least four atoms) — three more-specifics elsewhere lower it, two do not.
func TestDefaultRoutePortIsATable(t *testing.T) {
	for k, want := range map[int]int{2: 0, 3: 1, 64: 1} {
		fib := tables.FIB{{Prefix: 0, Len: 0, Port: 1}}
		for i := 0; i < k; i++ {
			fib = append(fib, tables.Route{Prefix: uint64(10)<<24 | uint64(i)<<8, Len: 24, Port: 0})
		}
		net := core.NewNetwork()
		if err := models.Router(net.AddElement("R", "router", 1, 2), fib, models.Egress); err != nil {
			t.Fatal(err)
		}
		its := egressTables(t, net, "R", 1)
		if len(its) != want {
			t.Fatalf("k=%d: default-route port has %d tables, want %d", k, len(its), want)
		}
		if want == 1 && (len(its[0].Rows) != 1 || len(its[0].Rows[0].Excl) != k) {
			t.Fatalf("k=%d: table rows %+v, want one row with %d exclusions", k, its[0].Rows, k)
		}
	}

	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 24, Routes: 40, Seed: 5})
	if its := egressTables(t, d.Net, "m1", 2); len(its) != 1 || len(its[0].Rows) != 1 {
		t.Fatalf("department m1.out[2] (the default route): %d tables, want one one-row table", len(its))
	}
}
