package datasets

import (
	"testing"

	"symnet/internal/core"
	"symnet/internal/sefl"
	"symnet/internal/solver"
	"symnet/internal/tables"
)

func TestSwitchTableDeterministic(t *testing.T) {
	a := SwitchTable(1000, 20, 42)
	b := SwitchTable(1000, 20, 42)
	if len(a) != 1000 {
		t.Fatalf("entries %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator must be deterministic per seed")
		}
	}
	// Unique MACs, round-robin ports.
	seen := map[uint64]bool{}
	for i, e := range a {
		if seen[e.MAC] {
			t.Fatal("duplicate MAC")
		}
		seen[e.MAC] = true
		if e.Port != i%20 {
			t.Fatal("port assignment not round-robin")
		}
	}
}

func TestCoreFIBProperties(t *testing.T) {
	fib := CoreFIB(5000, 16, 7)
	if len(fib) != 5000 {
		t.Fatalf("routes %d", len(fib))
	}
	// Host bits must be zero, and nesting must exist.
	for _, r := range fib {
		if r.Prefix&^maskOf(r.Len) != 0 {
			t.Fatalf("route %v has host bits set", r)
		}
	}
	if tables.NumExclusions(tables.CompileLPM(fib)) == 0 {
		t.Fatal("FIB must contain nested prefixes")
	}
	// /24 should dominate, like real tables.
	count24 := 0
	for _, r := range fib {
		if r.Len == 24 {
			count24++
		}
	}
	if count24 < len(fib)/5 {
		t.Fatalf("/24 share too small: %d", count24)
	}
}

func maskOf(plen int) uint64 {
	if plen == 0 {
		return 0
	}
	return ^uint64(0) << (32 - uint(plen)) & 0xffffffff
}

func TestStanfordBackboneReachability(t *testing.T) {
	b := StanfordBackbone(6, 20)
	// Inject at zone0's host port: every other zone's host port must be
	// reachable through a backbone router.
	res, err := core.Run(b.Net, core.PortRef{Elem: b.Zones[0], Port: 2}, sefl.NewIPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reachedZones := map[string]bool{}
	for _, p := range res.ByStatus(core.Delivered) {
		last := p.Last()
		if last.Out && last.Port == 2 {
			reachedZones[last.Elem] = true
		}
	}
	for _, z := range b.Zones[1:] {
		if !reachedZones[z] {
			t.Errorf("zone %s unreachable", z)
		}
	}
}

func TestDepartmentScales(t *testing.T) {
	d := NewDepartment(DepartmentConfig{NumAccessSwitches: 15, HostsPerSwitch: 400, Routes: 400, Seed: 11})
	if d.MACEntries < 6000 {
		t.Fatalf("MAC entries %d, want >= 6000 (paper scale)", d.MACEntries)
	}
	if d.RouteEntries != 400 {
		t.Fatalf("routes %d", d.RouteEntries)
	}
	if got := len(d.Net.Elements()); got < 21 {
		t.Fatalf("devices %d, want >= 21 (paper: 21 devices)", got)
	}
}

func TestSplitTCPTopologyRoundTrip(t *testing.T) {
	net := NewSplitTCP(SplitTCPConfig{ProxyRewritesMAC: true})
	res, err := core.Run(net, core.PortRef{Elem: "ap", Port: 0}, SplitTCPClientPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeliveredAt("client", 0)) != 1 {
		t.Fatalf("round trip paths: %+v", res.Stats)
	}
}

// TestSatHeavyCacheTraffic pins the property the cache telemetry tests rest
// on: the cross-field disjunction chain issues full Sat checks (not
// compressible to interval sets), and a sequential batch of
// identical queries over a shared cache misses exactly once per rule and
// hits on every replay.
func TestSatHeavyCacheTraffic(t *testing.T) {
	const rules, queries = 6, 4
	net, inject := SatHeavy(rules)
	memo := solver.NewSatCache()
	satChecks := 0
	for q := 0; q < queries; q++ {
		res, err := core.Run(net, inject, sefl.NewIPPacket(), core.Options{SatMemo: memo})
		if err != nil {
			t.Fatal(err)
		}
		satChecks += res.Stats.Solver.SatChecks
		if res.Stats.Delivered != 1 {
			t.Fatalf("query %d: delivered = %d, want 1", q, res.Stats.Delivered)
		}
	}
	if satChecks == 0 {
		t.Fatal("SatHeavy issued no Sat checks — disjunctions were compressed away")
	}
	if h := memo.Hits(); h != int64(queries-1)*memo.Misses() {
		t.Errorf("hits = %d, misses = %d: want hits = (queries-1)*misses for identical sequential queries", h, memo.Misses())
	}
	if memo.Misses() == 0 {
		t.Error("no cache misses recorded")
	}
}
