package churn

import (
	"fmt"
	"testing"

	"symnet/internal/sefl"
	"symnet/internal/verify"
)

// port2Deletes returns deltas deleting every port-2 route, which empties the
// router's port-2 fork list and makes net2 unreachable — a guaranteed
// reachability flip for watch tests.
func port2Deletes(t *testing.T, svc *Service) []Delta {
	t.Helper()
	fib, ok := svc.routers["rt"]
	if !ok {
		t.Fatal("no resident FIB for rt")
	}
	var ds []Delta
	for _, r := range fib {
		if r.Port == 2 {
			ds = append(ds, Delta{Elem: "rt", Op: OpDelete, Prefix: fmt.Sprintf("%s/%d", sefl.NumberToIP(r.Prefix), r.Len)})
		}
	}
	if len(ds) == 0 {
		t.Fatal("fixture has no port-2 routes")
	}
	return ds
}

// TestWatchEventsMatchDiffs drives a delta stream and pins each broadcast
// VersionEvent against an independent diff of the consecutive published
// matrices: every verdict flip appears exactly once, noop versions still
// publish (with no transitions), and versions arrive in order.
func TestWatchEventsMatchDiffs(t *testing.T) {
	svc := newDiffService(t, 2)
	sub := svc.watch(64)
	defer sub.Cancel()

	fds, err := GenFIBDeltas("rt", diffFIB(), "10.128.0.0/9", 6, 7)
	if err != nil {
		t.Fatal(err)
	}

	prev := svc.current()
	sawFlip := false
	step := func(di int, d Delta) {
		t.Helper()
		if _, err := svc.apply(d); err != nil {
			t.Fatalf("delta %d (%s): %v", di, d, err)
		}
		cur := svc.current()
		if cur.Version != prev.Version+1 {
			t.Fatalf("delta %d: version %d after %d", di, cur.Version, prev.Version)
		}
		ev := <-sub.Events
		if ev.Version != cur.Version {
			t.Fatalf("delta %d: event version %d, want %d", di, ev.Version, cur.Version)
		}
		// Independent flip count from the raw matrices.
		want := map[string]Transition{}
		for i := range cur.Report.Reachable {
			for j := range cur.Report.Reachable[i] {
				if cur.Report.Reachable[i][j] == prev.Report.Reachable[i][j] {
					continue
				}
				tr := Transition{
					Src:       cur.Report.Sources[i].String(),
					Dst:       cur.Report.Targets[j],
					From:      reachStatus(prev.Report.Reachable[i][j]),
					To:        reachStatus(cur.Report.Reachable[i][j]),
					FromPaths: prev.Report.PathCount[i][j],
					ToPaths:   cur.Report.PathCount[i][j],
					Version:   cur.Version,
				}
				want[tr.Src+"→"+tr.Dst] = tr
			}
		}
		if len(ev.Transitions) != len(want) {
			t.Fatalf("delta %d (%s): %d transitions, want %d: %+v", di, d, len(ev.Transitions), len(want), ev.Transitions)
		}
		for _, tr := range ev.Transitions {
			w, ok := want[tr.Src+"→"+tr.Dst]
			if !ok || tr != w {
				t.Fatalf("delta %d: transition %+v, want %+v", di, tr, w)
			}
			sawFlip = true
		}
		prev = cur
	}
	for di, d := range fds {
		step(di, d)
	}
	// Emptying port 2 of routes (computed from the post-stream FIB, which may
	// hold generated port-2 inserts) makes net2 unreachable — a guaranteed
	// verdict flip.
	for di, d := range port2Deletes(t, svc) {
		step(len(fds)+di, d)
	}
	if !sawFlip {
		t.Fatal("delta stream produced no reachability transitions (fixture no longer flips)")
	}
	// The final state must have net2 Failed from every source.
	for i := range prev.Report.Reachable {
		for j, dst := range prev.Report.Targets {
			if dst == "net2" && prev.Report.Reachable[i][j] {
				t.Fatalf("net2 still reachable from %s after port-2 deletes", prev.Report.Sources[i])
			}
		}
	}
}

// TestTransitionsSince pins the long-poll replay contract.
func TestTransitionsSince(t *testing.T) {
	svc := newDiffService(t, 1)
	// Ring holds the Init publish (version 1): since=0 is complete.
	if evs, ok := svc.transitionsSince(0); !ok || len(evs) != 1 || evs[0].Version != 1 {
		t.Fatalf("since=0 after init: %+v, %v", evs, ok)
	}
	if evs, ok := svc.transitionsSince(1); !ok || len(evs) != 0 {
		t.Fatalf("since=current: %+v, %v (want empty, complete)", evs, ok)
	}

	for _, d := range port2Deletes(t, svc) {
		if _, err := svc.apply(d); err != nil {
			t.Fatal(err)
		}
	}
	cur := svc.current().Version
	evs, ok := svc.transitionsSince(1)
	if !ok || len(evs) != int(cur-1) {
		t.Fatalf("since=1: %d events, ok=%v, want %d", len(evs), ok, cur-1)
	}
	for i, ev := range evs {
		if ev.Version != uint64(i)+2 {
			t.Fatalf("replay out of order: event %d has version %d", i, ev.Version)
		}
	}
	total := 0
	for _, ev := range evs {
		total += len(ev.Transitions)
	}
	if total == 0 {
		t.Fatal("replayed events carry no transitions despite reachability flips")
	}

	// Overflow the ring; a client beyond it must be told to re-sync.
	for i := 0; i < ringSize; i++ {
		svc.hub.broadcast(VersionEvent{Version: cur + uint64(i) + 1})
	}
	if _, ok := svc.transitionsSince(1); ok {
		t.Fatal("since beyond the replay ring reported complete history")
	}
	if evs, ok := svc.transitionsSince(cur + ringSize - 4); !ok || len(evs) != 4 {
		t.Fatalf("tail replay: %d events, ok=%v", len(evs), ok)
	}
}

// TestWatchSlowSubscriberDropped: a full subscriber is cancelled rather than
// blocking the publisher, and fresh subscribers are unaffected.
func TestWatchSlowSubscriberDropped(t *testing.T) {
	svc := newDiffService(t, 1)
	slow := svc.watch(1)
	fast := svc.watch(16)
	defer fast.Cancel()

	ds := port2Deletes(t, svc)
	for _, d := range ds {
		if _, err := svc.apply(d); err != nil {
			t.Fatal(err)
		}
	}
	// slow buffered 1 event then got dropped: channel yields that event,
	// then closes.
	if _, ok := <-slow.Events; !ok {
		t.Fatal("slow subscriber lost its buffered event")
	}
	n := 0
	for range slow.Events {
		n++
	}
	if n >= len(ds)-1 {
		t.Fatalf("slow subscriber was never dropped (drained %d more events)", n)
	}
	// fast saw everything in order.
	var last uint64 = 1
	for i := 0; i < len(ds); i++ {
		ev := <-fast.Events
		if ev.Version != last+1 {
			t.Fatalf("fast subscriber: version %d after %d", ev.Version, last)
		}
		last = ev.Version
	}
	if got := verify.DiffReports(svc.current().Report, svc.current().Report); len(got) != 0 {
		t.Fatalf("self-diff not empty: %+v", got)
	}
	slow.Cancel() // idempotent after drop
}
