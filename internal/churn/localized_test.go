package churn

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/models"
	"symnet/internal/sefl"
	"symnet/internal/tables"
	"symnet/internal/verify"
)

const (
	starAsws  = 4
	starUpMAC = uint64(0x02AA00000001)
)

func starHostMAC(sw, h int) uint64 { return 0x020000000000 | uint64(sw)<<16 | uint64(h) }

func starAswTable(k int) tables.MACTable {
	t := tables.MACTable{{MAC: starUpMAC, Port: 0}}
	for h := 0; h < 8; h++ {
		t = append(t, tables.MACEntry{MAC: starHostMAC(k, h), Port: 1 + h/4})
	}
	return t
}

func starAggTable() tables.MACTable {
	var t tables.MACTable
	for k := 0; k < starAsws; k++ {
		for h := 0; h < 8; h++ {
			t = append(t, tables.MACEntry{MAC: starHostMAC(k, h), Port: k})
		}
	}
	return append(t, tables.MACEntry{MAC: starUpMAC, Port: starAsws})
}

// buildStarNet is an access-layer star: hosts inject at access switches,
// which uplink to an aggregation switch with one upstream port. With the
// packet's EtherDst pinned to the upstream MAC, a source's exploration dies
// at agg's other access-facing guards without ever entering sibling access
// switches — the topology that makes access-switch deltas localized.
func buildStarNet(t *testing.T, asw map[string]tables.MACTable, agg tables.MACTable) *core.Network {
	t.Helper()
	n := core.NewNetwork()
	ag := n.AddElement("agg", "switch", starAsws+1, starAsws+1)
	if err := models.Switch(ag, agg, models.Egress); err != nil {
		t.Fatal(err)
	}
	up := n.AddElement("up", "sink", 1, 0)
	up.SetInCode(0, sefl.NoOp{})
	n.MustLink("agg", starAsws, "up", 0)
	for k := 0; k < starAsws; k++ {
		name := fmt.Sprintf("asw%d", k)
		e := n.AddElement(name, "switch", 3, 3)
		if err := models.Switch(e, asw[name], models.Egress); err != nil {
			t.Fatal(err)
		}
		sink := n.AddElement(fmt.Sprintf("hsink%d", k), "sink", 2, 0)
		sink.SetInCode(core.WildcardPort, sefl.NoOp{})
		n.MustLink(name, 0, "agg", k)
		n.MustLink("agg", k, name, 0)
		n.MustLink(name, 1, sink.Name, 0)
		n.MustLink(name, 2, sink.Name, 1)
	}
	return n
}

func starTables() (map[string]tables.MACTable, tables.MACTable) {
	asw := make(map[string]tables.MACTable, starAsws)
	for k := 0; k < starAsws; k++ {
		asw[fmt.Sprintf("asw%d", k)] = starAswTable(k)
	}
	return asw, starAggTable()
}

// starService stands up the resident star workload on the given runner — one
// source per access switch, the packet's EtherDst pinned to the upstream MAC —
// and returns it with a check that compares the resident report, byte for
// byte, against a from-scratch verification of the service's current tables.
func starService(t *testing.T, runner dist.Runner) (*Service, func(step string)) {
	t.Helper()
	asw, agg := starTables()
	var sources []core.PortRef
	var targets []string
	for k := 0; k < starAsws; k++ {
		sources = append(sources, core.PortRef{Elem: fmt.Sprintf("asw%d", k), Port: 1})
		targets = append(targets, fmt.Sprintf("hsink%d", k))
	}
	targets = append(targets, "up")
	packet := sefl.Seq(
		sefl.NewTCPPacket(),
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(starUpMAC, sefl.MACWidth))},
	)
	opts := core.Options{Trace: true}

	svc := NewService(Config{
		Net:     buildStarNet(t, asw, agg),
		Sources: sources,
		Targets: targets,
		Packet:  packet,
		Opts:    opts,
		Runner:  runner,
	})
	for name, tbl := range asw {
		svc.RegisterSwitch(name, tbl)
	}
	svc.RegisterSwitch("agg", agg)
	if err := svc.Init(); err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		cur := make(map[string]tables.MACTable, starAsws)
		for k := 0; k < starAsws; k++ {
			name := fmt.Sprintf("asw%d", k)
			tbl, ok := svc.switches[name]
			if !ok {
				t.Fatalf("%s: %s not registered", step, name)
			}
			cur[name] = slices.Clone(tbl)
		}
		aggCur := slices.Clone(svc.switches["agg"])
		fresh, err := verify.AllPairsReachability(buildStarNet(t, cur, aggCur), sources, packet, targets, opts, dist.InProcess(2, nil))
		if err != nil {
			t.Fatalf("%s: fresh verification: %v", step, err)
		}
		compareReports(t, step, svc.report, fresh)
	}
	return svc, check
}

// TestServiceLocalizedDeltas pins the dependency tracker's precision: with a
// destination-constrained workload, a MAC delta on one access switch dirties
// only that switch's own source, so churn.cells.reverified stays strictly
// below the total cell count — the tentpole's localization claim.
func TestServiceLocalizedDeltas(t *testing.T) {
	svc, check := starService(t, dist.InProcess(2, nil))
	check("init")

	// Insert a fresh host MAC on asw2 port 1: the port set holds, so the
	// delta lands in the patch tier, and only asw2's own source ever
	// attempted that guard.
	res, err := svc.apply(Delta{Elem: "asw2", Op: OpInsert, MAC: "06:00:00:00:00:99", Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != actionPatched {
		t.Fatalf("insert on a held port set: action %s, want %s", res.Action, actionPatched)
	}
	if res.DirtySources != 1 {
		t.Fatalf("asw2 delta dirtied %d sources, want 1", res.DirtySources)
	}
	if res.CellsReverified >= svc.totalCells() {
		t.Fatalf("reverified %d cells, want < total %d", res.CellsReverified, svc.totalCells())
	}
	check("asw2 insert")

	// Move a host MAC across asw1's ports: the shrinking guard drops below
	// the lowering threshold (an Or-tree) while the growing one stays a
	// table; both ports get new code, and the dirty set is still just
	// asw1's source.
	res, err = svc.apply(Delta{Elem: "asw1", Op: OpModify, MAC: sefl.NumberToMAC(starHostMAC(1, 0)), Port: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != actionPatched || res.PortsPatched != 2 {
		t.Fatalf("modify across ports: action %s, %d ports patched; want %s, 2", res.Action, res.PortsPatched, actionPatched)
	}
	if res.DirtySources != 1 {
		t.Fatalf("asw1 delta dirtied %d sources, want 1", res.DirtySources)
	}
	check("asw1 modify")

	// An aggregation-layer delta is attempted by every source's fork, so the
	// whole column goes dirty — precision degrades exactly with dependency.
	res, err = svc.apply(Delta{Elem: "agg", Op: OpInsert, MAC: "06:00:00:00:00:aa", Port: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtySources != starAsws {
		t.Fatalf("agg delta dirtied %d sources, want %d", res.DirtySources, starAsws)
	}
	check("agg insert")

	snap := svc.registry().Snapshot()
	reverified := snap.Counters["churn.cells.reverified"]
	total := snap.Gauges["churn.cells.total"]
	if total == 0 || reverified == 0 {
		t.Fatalf("churn metrics not exported: reverified=%d total=%d", reverified, total)
	}
	// Across the three deltas: (1 + 1 + starAsws) sources * len(targets)
	// cells re-verified, versus 3 full recomputes worth (3 * total).
	if reverified >= 3*total {
		t.Fatalf("reverified %d cells across 3 deltas, want < %d (full recompute)", reverified, 3*total)
	}
	if snap.Counters["churn.ports.patched"] == 0 || snap.Counters["churn.deltas.applied"] != 3 {
		t.Fatalf("unexpected churn counters: %v", snap.Counters)
	}
}

// failingRunner is the in-process runner with one batch made to fail the way
// a fleet with no live member does: every job answers Err. It can exist only
// because the service reaches its engine through the dist.Runner seam — the
// in-process path used to be hard-wired to sched and could not be made to
// fail.
type failingRunner struct {
	dist.Runner
	failOn  int // 1-based number of the batch to fail
	batches int
}

func (r *failingRunner) RunBatch(net *core.Network, jobs []dist.Job) []dist.JobResult {
	r.batches++
	if r.batches != r.failOn {
		return r.Runner.RunBatch(net, jobs)
	}
	out := make([]dist.JobResult, len(jobs))
	for i, j := range jobs {
		out[i] = dist.JobResult{Name: j.Name, Err: errors.New("no live fleet member")}
	}
	return out
}

// TestFailedReverifyKeepsDirtySet pins that a commit whose re-verification
// batch fails does not lose its dirty sources. The commit has already updated
// the tables and guards, so the next commit diffs against the new tables and
// would never look at those sources again; they must ride its batch. Here the
// failed delta reroutes asw2's upstream traffic and the following delta
// touches only asw1, so without the carry-over asw2's row stays stale.
func TestFailedReverifyKeepsDirtySet(t *testing.T) {
	runner := &failingRunner{Runner: dist.InProcess(2, nil), failOn: 2} // batch 1 is Init
	svc, check := starService(t, runner)
	before := svc.report.Reachable[2]

	if _, err := svc.apply(Delta{Elem: "asw2", Op: OpModify, MAC: sefl.NumberToMAC(starUpMAC), Port: 1}); err == nil {
		t.Fatal("Apply over a failing batch succeeded")
	}
	if v := svc.current().Version; v != 1 {
		t.Fatalf("failed commit published version %d", v)
	}

	res, err := svc.apply(Delta{Elem: "asw1", Op: OpInsert, MAC: "06:00:00:00:00:99", Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtySources != 2 {
		t.Errorf("commit after a failed one re-verified %d sources, want asw1's own and the carried-over asw2", res.DirtySources)
	}
	if v := svc.current().Version; v != 2 {
		t.Fatalf("version after the recovered commit = %d, want 2", v)
	}
	check("after failed batch")
	if reflect.DeepEqual(svc.report.Reachable[2], before) {
		t.Fatal("the failed delta did not change asw2's row; the test cannot see a stale cell")
	}
}
