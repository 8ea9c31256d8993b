package prog_test

import (
	"fmt"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/models"
	"symnet/internal/prog"
	"symnet/internal/sefl"
)

// TestEveryTableLowers: in every dataset network, each port's code compiles
// to exactly one lowered guard per sefl.Table in its source — the models'
// one-entry ports included — so no table guard reaches the solver as an
// Or-tree.
func TestEveryTableLowers(t *testing.T) {
	router := core.NewNetwork()
	if err := models.Router(router.AddElement("R", "router", 1, 16), datasets.CoreFIB(62500, 16, 1), models.Egress); err != nil {
		t.Fatal(err)
	}
	// The split-TCP scenario writes no table: its guards stay as written.
	nets := []struct {
		name   string
		net    *core.Network
		tables int
	}{
		{"department", datasets.NewDepartment(datasets.DefaultDepartment()).Net, 100},
		{"backbone", datasets.StanfordBackbone(14, 300).Net, 58},
		{"splittcp", datasets.NewSplitTCP(datasets.SplitTCPConfig{
			MTUDrop: true, Tunnel: true, ProxyStripsVLAN: true, DHCPAppliance: true, ProxyRewritesMAC: true,
		}), 0},
		{"core router", router, 16},
	}
	for _, n := range nets {
		tablesSeen := 0
		for _, e := range n.net.Elements() {
			for _, out := range []bool{false, true} {
				ports := e.NumIn
				if out {
					ports = e.NumOut
				}
				for p := core.WildcardPort; p < ports; p++ {
					code, ok := e.Code(p, out)
					if !ok {
						continue
					}
					want := countTables(code)
					label := fmt.Sprintf("%s.%v[%d]", e.Name, map[bool]string{false: "in", true: "out"}[out], p)
					if got := len(prog.GuardTables(prog.Compile(code, e.Name, 0, label))); got != want {
						t.Errorf("%s %s: %d lowered guards, %d tables in the source", n.name, label, got, want)
					}
					tablesSeen += want
				}
			}
		}
		if tablesSeen != n.tables {
			t.Errorf("%s: %d table guards in the source, want %d", n.name, tablesSeen, n.tables)
		}
	}
}

// countTables counts the sefl.Table conditions in an instruction's guards,
// For bodies aside (they are built per metadata key at run time).
func countTables(ins sefl.Instr) int {
	switch v := ins.(type) {
	case sefl.Constrain:
		return countCondTables(v.C)
	case sefl.If:
		return countCondTables(v.C) + countTables(v.Then) + countTables(v.Else)
	case sefl.Block:
		n := 0
		for _, sub := range v.Is {
			n += countTables(sub)
		}
		return n
	}
	return 0
}

func countCondTables(c sefl.Cond) int {
	switch v := c.(type) {
	case sefl.Table:
		return 1
	case sefl.CAnd:
		n := 0
		for _, sub := range v.Cs {
			n += countCondTables(sub)
		}
		return n
	case sefl.COr:
		n := 0
		for _, sub := range v.Cs {
			n += countCondTables(sub)
		}
		return n
	case sefl.CNot:
		return countCondTables(v.C)
	}
	return 0
}
