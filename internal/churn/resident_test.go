package churn

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"symnet/internal/dist"
	"symnet/internal/sefl"
	"symnet/internal/tables"
	"symnet/internal/verify"
)

// TestResidentCoalesces queues many single-delta submissions before the
// absorber starts, then verifies they collapse into few absorption passes
// (batch_size > 1) and that every submitter rode a committed batch.
func TestResidentCoalesces(t *testing.T) {
	svc := newDiffService(t, 2)
	r := newResident(svc)

	fds, err := GenFIBDeltas("rt", diffFIB(), "10.128.0.0/9", 10, 21)
	if err != nil {
		t.Fatal(err)
	}

	// Enqueue all submissions while the absorber is not yet running, so the
	// first pass finds a full queue to coalesce.
	var wg sync.WaitGroup
	results := make([]*ApplyReport, len(fds))
	errs := make([]error, len(fds))
	for i, d := range fds {
		wg.Add(1)
		go func(i int, d Delta) {
			defer wg.Done()
			results[i], errs[i] = r.Apply(context.Background(), d)
		}(i, d)
	}
	waitGauge(t, svc, "churn.queue.depth", int64(len(fds)))

	r.start()
	wg.Wait()
	defer r.Close()

	for i := range fds {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if results[i].Applied != 1 || results[i].Batch == nil {
			t.Fatalf("submit %d: %+v", i, results[i])
		}
	}
	// All 10 queued submissions must have coalesced into a single pass: one
	// version bump past Init, one shared BatchResult.
	if got := svc.current().Version; got != 2 {
		t.Fatalf("version %d after coalesced burst, want 2", got)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Batch != results[0].Batch {
			t.Fatalf("submission %d rode a different batch", i)
		}
	}
	if b := results[0].Batch; b.Deltas != len(fds) || b.Elems != 1 {
		t.Fatalf("batch absorbed %d deltas over %d elems, want %d/1", b.Deltas, b.Elems, len(fds))
	}
	snap := svc.reg.Snapshot()
	if got := snap.Gauges["churn.batch.max_size"]; got != int64(len(fds)) {
		t.Fatalf("churn.batch.max_size = %d, want %d", got, len(fds))
	}
	if got := snap.Counters["churn.queue.coalesced"]; got != int64(len(fds)-1) {
		t.Fatalf("churn.queue.coalesced = %d, want %d", got, len(fds)-1)
	}

	// The coalesced result must be byte-identical to a from-scratch run.
	fib := slices.Clone(svc.routers["rt"])
	tbl := slices.Clone(svc.switches["sw"])
	fresh, err := verify.AllPairsReachability(
		buildDiffNet(t, fib, tbl),
		svc.cfg.Sources, svc.cfg.Packet, svc.cfg.Targets, svc.cfg.Opts, dist.InProcess(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "coalesced burst vs fresh", svc.current().Report, fresh)
}

func waitGauge(t *testing.T, svc *Service, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.reg.Snapshot().Gauges[name] == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("gauge %s never reached %d (now %d)", name, want, svc.reg.Snapshot().Gauges[name])
}

// TestResidentMixedSuccess: one submission carrying both applicable and
// inapplicable deltas applies the good ones and reports the bad per-delta.
func TestResidentMixedSuccess(t *testing.T) {
	svc := newDiffService(t, 1)
	r := NewResident(svc)
	defer r.Close()

	res, err := r.Apply(context.Background(),
		Delta{Elem: "rt", Op: OpInsert, Prefix: "99.0.0.0/8", Port: 1},
		Delta{Elem: "rt", Op: OpDelete, Prefix: "1.2.3.0/24"}, // not present
		Delta{Elem: "nosuch", Op: OpInsert, Prefix: "5.0.0.0/8", Port: 0},
		Delta{Elem: "rt", Op: OpInsert, Prefix: "98.0.0.0/8", Port: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.Batch == nil || res.Batch.Deltas != 2 {
		t.Fatalf("mixed submission: %+v", res)
	}
	wantApplied := []bool{true, false, false, true}
	for i, st := range res.Statuses {
		if st.Applied != wantApplied[i] {
			t.Fatalf("status %d: %+v, want applied=%v", i, st, wantApplied[i])
		}
		if !st.Applied && st.Err == "" {
			t.Fatalf("status %d rejected without an error", i)
		}
	}

	// All-rejected submission: no commit, nil Batch, no version bump.
	before := svc.current().Version
	res, err = r.Apply(context.Background(), Delta{Elem: "rt", Op: OpDelete, Prefix: "1.2.3.0/24"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || res.Batch != nil {
		t.Fatalf("all-rejected submission: %+v", res)
	}
	if svc.current().Version != before {
		t.Fatal("all-rejected submission bumped the version")
	}
}

// TestResidentRefusesModelErrorsPerDelta: a delta whose staged table the
// element's model would refuse — here a route inserted or modified to port
// 7 of a router with three output ports — is refused when it is staged, per
// delta, so it cannot fail the commit of the good deltas it rode with: the
// good MAC modify on sw and route insert on rt publish version 2 and leave
// no source unverified.
func TestResidentRefusesModelErrorsPerDelta(t *testing.T) {
	svc := newDiffService(t, 1)
	r := NewResident(svc)
	defer r.Close()

	res, err := r.Apply(context.Background(),
		Delta{Elem: "sw", Op: OpModify, MAC: sefl.NumberToMAC(0x020000000100), Port: 2},
		Delta{Elem: "rt", Op: OpInsert, Prefix: "98.0.0.0/8", Port: 0},
		Delta{Elem: "rt", Op: OpInsert, Prefix: "99.0.0.0/8", Port: 7},
		Delta{Elem: "rt", Op: OpModify, Prefix: "20.0.0.0/8", Port: 7},
	)
	if err != nil {
		t.Fatalf("submission failed as a whole: %v", err)
	}
	if res.Applied != 2 || !res.Statuses[0].Applied || !res.Statuses[1].Applied || res.Batch == nil || res.Batch.Version != 2 {
		t.Fatalf("good deltas not published as version 2: %+v", res)
	}
	for _, st := range res.Statuses[2:] {
		if st.Applied || !strings.Contains(st.Err, "port 7") {
			t.Fatalf("route to a missing port: %+v, want refused naming port 7", st)
		}
	}
	if got := svc.current().Version; got != 2 {
		t.Fatalf("version %d, want 2", got)
	}
	if len(svc.unverified) != 0 {
		t.Fatalf("%d sources left unverified", len(svc.unverified))
	}
	if slices.ContainsFunc(svc.routers["rt"], func(r tables.Route) bool { return r.Port == 7 }) {
		t.Fatal("a refused route reached the resident FIB")
	}
}

// TestResidentConcurrentReaders is the -race pin for the serving layer:
// N goroutines hammer Current() and a watch subscription while a delta
// stream absorbs. Every reader must observe monotone versions and
// internally consistent snapshots (same version ⇒ same matrices).
func TestResidentConcurrentReaders(t *testing.T) {
	svc := newDiffService(t, 2)
	r := NewResident(svc)

	fds, err := GenFIBDeltas("rt", diffFIB(), "10.128.0.0/9", 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	mds, err := GenMACDeltas("sw", diffMACs(), 16, 11)
	if err != nil {
		t.Fatal(err)
	}

	fp := func(rep *verify.AllPairsReport) string {
		var b bytes.Buffer
		for i := range rep.Reachable {
			for j := range rep.Reachable[i] {
				fmt.Fprintf(&b, "%v:%d;", rep.Reachable[i][j], rep.PathCount[i][j])
			}
		}
		return b.String()
	}

	const readers = 8
	stop := make(chan struct{})
	var mu sync.Mutex
	seen := map[uint64]string{} // version -> fingerprint
	fail := make(chan string, readers+2)
	var wg sync.WaitGroup

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				pr := r.Current()
				if pr == nil {
					fail <- "nil published report"
					return
				}
				if pr.Version < last {
					fail <- fmt.Sprintf("version went backwards: %d after %d", pr.Version, last)
					return
				}
				last = pr.Version
				got := fp(pr.Report)
				mu.Lock()
				if prev, ok := seen[pr.Version]; ok && prev != got {
					mu.Unlock()
					fail <- fmt.Sprintf("version %d observed with two different matrices", pr.Version)
					return
				}
				seen[pr.Version] = got
				mu.Unlock()
			}
		}()
	}

	// A watcher asserting strictly increasing event versions.
	sub := r.Watch(len(fds) + len(mds) + 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64 = 1
		for ev := range sub.Events {
			if ev.Version <= last {
				fail <- fmt.Sprintf("watch version %d after %d", ev.Version, last)
				return
			}
			last = ev.Version
		}
	}()

	// Two concurrent writers interleave FIB and MAC submissions.
	var writers sync.WaitGroup
	for _, stream := range [][]Delta{fds, mds} {
		writers.Add(1)
		go func(ds []Delta) {
			defer writers.Done()
			for _, d := range ds {
				if _, err := r.Apply(context.Background(), d); err != nil {
					fail <- fmt.Sprintf("submit %s: %v", d, err)
					return
				}
			}
		}(stream)
	}
	writers.Wait()
	if _, err := r.Export(context.Background()); err != nil {
		t.Fatal(err)
	}
	finalV := r.Current().Version
	close(stop)
	sub.Cancel()
	r.Close()
	wg.Wait()

	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if finalV < 2 {
		t.Fatalf("final version %d: no deltas were absorbed", finalV)
	}
	// The final resident state matches a from-scratch run.
	fib := slices.Clone(svc.routers["rt"])
	tbl := slices.Clone(svc.switches["sw"])
	fresh, err := verify.AllPairsReachability(
		buildDiffNet(t, fib, tbl),
		svc.cfg.Sources, svc.cfg.Packet, svc.cfg.Targets, svc.cfg.Opts, dist.InProcess(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "post-churn vs fresh", svc.current().Report, fresh)
}

// TestResidentCloseFailsPending: submissions still queued at Close are
// answered with an error, and Apply after Close fails fast.
func TestResidentCloseFailsPending(t *testing.T) {
	svc := newDiffService(t, 1)
	r := newResident(svc)
	// Never started: queue a submission, then close.
	errc := make(chan error, 1)
	go func() {
		_, err := r.Apply(context.Background(), Delta{Elem: "rt", Op: OpInsert, Prefix: "99.0.0.0/8", Port: 0})
		errc <- err
	}()
	waitGauge(t, svc, "churn.queue.depth", 1)
	r.Close()
	if err := <-errc; err == nil {
		t.Fatal("queued submission survived Close without error")
	}
	if _, err := r.Apply(context.Background()); err == nil {
		t.Fatal("Apply after Close succeeded")
	}
	// Context cancellation also unblocks.
	r2 := newResident(newDiffService(t, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r2.Export(ctx); err == nil {
		t.Fatal("Export ignored cancelled context")
	}
}
