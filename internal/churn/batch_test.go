package churn

import (
	"fmt"
	"slices"
	"testing"

	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/sefl"
	"symnet/internal/verify"
)

func newDiffService(t testing.TB, workers int) *Service {
	t.Helper()
	svc := NewService(Config{
		Net:     buildDiffNet(t, diffFIB(), diffMACs()),
		Sources: []core.PortRef{{Elem: "sw", Port: 1}, {Elem: "sw", Port: 2}},
		Targets: []string{"hosts", "net0", "net1", "net2"},
		Packet:  sefl.NewTCPPacket(),
		Opts:    core.Options{Trace: true},
		Runner:  dist.InProcess(workers, nil),
	})
	svc.RegisterRouter("rt", diffFIB())
	svc.RegisterSwitch("sw", diffMACs())
	if err := svc.Init(); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestBatchDifferentialVersions is the serving-layer soundness pin: a mixed
// FIB/MAC delta stream absorbed in coalesced batches must (a) publish
// exactly one monotonically increasing version per batch and (b) leave every
// published version byte-identical — results, traces, histories, solver
// stats — to a from-scratch verification of the network at that delta
// prefix, at every worker count.
func TestBatchDifferentialVersions(t *testing.T) {
	fds, err := GenFIBDeltas("rt", diffFIB(), "10.128.0.0/9", 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	mds, err := GenMACDeltas("sw", diffMACs(), 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []Delta
	for i := range fds {
		deltas = append(deltas, fds[i], mds[i])
	}

	workerCounts := []int{1, 2, 8}
	svcs := make([]*Service, len(workerCounts))
	for k, w := range workerCounts {
		svcs[k] = newDiffService(t, w)
		if got := svcs[k].current().Version; got != 1 {
			t.Fatalf("workers=%d: Init published version %d, want 1", w, got)
		}
	}

	check := func(step string) {
		t.Helper()
		fib := slices.Clone(svcs[0].routers["rt"])
		tbl := slices.Clone(svcs[0].switches["sw"])
		fresh, err := verify.AllPairsReachability(
			buildDiffNet(t, fib, tbl),
			svcs[0].cfg.Sources, svcs[0].cfg.Packet, svcs[0].cfg.Targets, svcs[0].cfg.Opts, dist.InProcess(2, nil))
		if err != nil {
			t.Fatalf("%s: fresh verification: %v", step, err)
		}
		for k, w := range workerCounts {
			compareReports(t, fmt.Sprintf("%s workers=%d", step, w), svcs[k].current().Report, fresh)
		}
	}

	// Absorb in coalesced chunks of growing size: 1, 2, 3, ... deltas per
	// batch, mixing the two tables within a chunk.
	var wantVersion uint64 = 1
	for size, off := 1, 0; off < len(deltas); size++ {
		end := off + size
		if end > len(deltas) {
			end = len(deltas)
		}
		chunk := deltas[off:end]
		var first *BatchResult
		for k, w := range workerCounts {
			br, err := svcs[k].applyBatch(chunk)
			if err != nil {
				t.Fatalf("batch [%d:%d) workers=%d: %v", off, end, w, err)
			}
			if br.Deltas != len(chunk) {
				t.Fatalf("batch [%d:%d): absorbed %d deltas, want %d", off, end, br.Deltas, len(chunk))
			}
			if k == 0 {
				first = br
			} else if br.Action != first.Action || br.DirtySources != first.DirtySources {
				t.Fatalf("batch [%d:%d): divergent absorption across worker counts: %+v vs %+v", off, end, br, first)
			}
		}
		wantVersion++
		for k, w := range workerCounts {
			pr := svcs[k].current()
			if pr.Version != wantVersion {
				t.Fatalf("batch [%d:%d) workers=%d: version %d, want %d", off, end, w, pr.Version, wantVersion)
			}
			if svcs[k].report != pr.Report {
				t.Fatalf("batch [%d:%d) workers=%d: Report() diverges from Current().Report", off, end, w)
			}
		}
		if first.Version != wantVersion {
			t.Fatalf("batch [%d:%d): BatchResult.Version %d, want %d", off, end, first.Version, wantVersion)
		}
		check(fmt.Sprintf("batch [%d:%d)", off, end))
		off = end
	}
}

// TestBatchCoalescingSameTable pins the coalescing contract: N deltas to one
// table commit as a single pass — one version bump, a union dirty set no
// larger than the per-delta sum, and a final state byte-identical to
// absorbing the same deltas one at a time.
func TestBatchCoalescingSameTable(t *testing.T) {
	fds, err := GenFIBDeltas("rt", diffFIB(), "10.128.0.0/9", 10, 21)
	if err != nil {
		t.Fatal(err)
	}

	seq := newDiffService(t, 2)
	var seqDirty int
	for _, d := range fds {
		res, err := seq.apply(d)
		if err != nil {
			t.Fatal(err)
		}
		seqDirty += res.DirtySources
	}
	if got := seq.current().Version; got != uint64(1+len(fds)) {
		t.Fatalf("sequential: version %d after %d deltas, want %d", got, len(fds), 1+len(fds))
	}

	bat := newDiffService(t, 2)
	br, err := bat.applyBatch(fds)
	if err != nil {
		t.Fatal(err)
	}
	if bat.current().Version != 2 {
		t.Fatalf("batched: version %d, want 2 (one publish per batch)", bat.current().Version)
	}
	if br.Elems != 1 || br.Deltas != len(fds) {
		t.Fatalf("batched: elems=%d deltas=%d, want 1/%d", br.Elems, br.Deltas, len(fds))
	}
	if br.DirtySources > seqDirty {
		t.Fatalf("batched dirty %d exceeds sequential total %d", br.DirtySources, seqDirty)
	}
	compareReports(t, "batched vs sequential", bat.current().Report, seq.current().Report)

	// And byte-identical to a from-scratch run of the final rule set.
	fib := slices.Clone(bat.routers["rt"])
	tbl := slices.Clone(bat.switches["sw"])
	fresh, err := verify.AllPairsReachability(
		buildDiffNet(t, fib, tbl),
		bat.cfg.Sources, bat.cfg.Packet, bat.cfg.Targets, bat.cfg.Opts, dist.InProcess(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "batched vs fresh", bat.current().Report, fresh)
}

// TestStagePerDeltaAtomicity: an inapplicable delta fails Add without
// corrupting the stage; the remaining deltas still stage and commit.
func TestStagePerDeltaAtomicity(t *testing.T) {
	svc := newDiffService(t, 1)
	st := svc.newStage()
	if err := st.Add(Delta{Elem: "rt", Op: OpInsert, Prefix: "99.0.0.0/8", Port: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(Delta{Elem: "rt", Op: OpInsert, Prefix: "99.0.0.0/8", Port: 2}); err == nil {
		t.Fatal("duplicate insert staged without error")
	}
	if err := st.Add(Delta{Elem: "rt", Op: OpDelete, Prefix: "1.2.3.0/24"}); err == nil {
		t.Fatal("delete of missing route staged without error")
	}
	if err := st.Add(Delta{Elem: "nosuch", Op: OpDelete, Prefix: "10.0.0.0/8"}); err == nil {
		t.Fatal("unknown element staged without error")
	}
	if err := st.Add(Delta{Elem: "rt", Op: OpModify, Prefix: "99.0.0.0/8", Port: 2}); err != nil {
		t.Fatalf("modify of staged insert: %v", err)
	}
	if st.Deltas() != 2 {
		t.Fatalf("staged %d deltas, want 2", st.Deltas())
	}
	br, err := st.commit()
	if err != nil {
		t.Fatal(err)
	}
	if br.Deltas != 2 {
		t.Fatalf("committed %d deltas, want 2", br.Deltas)
	}
	fib := slices.Clone(svc.routers["rt"])
	found := false
	for _, r := range fib {
		if r.Prefix == 0x63000000 && r.Len == 8 {
			found = r.Port == 2
		}
	}
	if !found {
		t.Fatalf("staged insert+modify did not land: %v", fib)
	}

	// Empty commit publishes nothing.
	before := svc.current().Version
	if br, err := svc.newStage().commit(); err != nil || br.Deltas != 0 {
		t.Fatalf("empty commit: %+v, %v", br, err)
	}
	if svc.current().Version != before {
		t.Fatalf("empty commit bumped version %d -> %d", before, svc.current().Version)
	}
}

// TestApplyBatchAllOrNothing: applyBatch (unlike Resident.Submit) rejects
// the whole batch when any delta fails to stage — a missing rule, or a
// table the element's model would refuse (a route to a port the router
// lacks, deletes that empty a table) — before anything is touched: no
// version, no table, no installed guard moves.
func TestApplyBatchAllOrNothing(t *testing.T) {
	svc := newDiffService(t, 1)
	sw, _ := svc.cfg.Net.Element("sw")
	var emptySw []Delta
	for _, m := range diffMACs() {
		emptySw = append(emptySw, Delta{Elem: "sw", Op: OpDelete, MAC: sefl.NumberToMAC(m.MAC)})
	}
	for name, ds := range map[string][]Delta{
		"missing rule": {
			{Elem: "rt", Op: OpInsert, Prefix: "99.0.0.0/8", Port: 1},
			{Elem: "rt", Op: OpDelete, Prefix: "1.2.3.0/24"}, // not present
		},
		"missing port": {
			{Elem: "sw", Op: OpModify, MAC: sefl.NumberToMAC(0x020000000100), Port: 2},
			{Elem: "rt", Op: OpInsert, Prefix: "99.0.0.0/8", Port: 7},
		},
		"empty table": emptySw,
	} {
		before := svc.current().Version
		fib, macs := slices.Clone(svc.routers["rt"]), slices.Clone(svc.switches["sw"])
		code := make([]string, sw.NumOut)
		for p := range code {
			c, _ := sw.Code(p, true)
			code[p] = fmt.Sprint(c)
		}
		if _, err := svc.applyBatch(ds); err == nil {
			t.Fatalf("%s: batch committed", name)
		}
		if svc.current().Version != before {
			t.Fatalf("%s: refused batch bumped the version", name)
		}
		if !slices.Equal(svc.routers["rt"], fib) || !slices.Equal(svc.switches["sw"], macs) {
			t.Fatalf("%s: refused batch changed a resident table", name)
		}
		for p := range code {
			if c, _ := sw.Code(p, true); fmt.Sprint(c) != code[p] {
				t.Fatalf("%s: refused batch changed sw's port %d guard", name, p)
			}
		}
	}
}
