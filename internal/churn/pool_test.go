package churn

// Pool-mode differential: a service whose re-verification runs through a
// dist.Pool (TCP fleet) must publish exactly the observables of the
// in-process service on the same delta stream — same reachability matrix,
// path counts, absorption tiers and dirty sets — with the fleet's installed
// code kept current purely through Refresh deltas, model rebuilds and
// restores included.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/obs"
	"symnet/internal/sefl"
)

func TestServiceDifferentialPool(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	// A route delta that moves no address re-verifies nothing, on the fleet
	// as in process, traced or not.
	for _, trace := range []bool{true, false} {
		t.Run(fmt.Sprintf("trace=%v", trace), func(t *testing.T) { serviceDifferentialPool(t, trace) })
	}
}

func serviceDifferentialPool(t *testing.T, trace bool) {
	reg := obs.NewRegistry()
	pool := loopbackPool(t, 1, dist.Config{WorkersPerProc: 2, Obs: obs.New(reg, nil)})

	sources := []core.PortRef{{Elem: "sw", Port: 1}, {Elem: "sw", Port: 2}}
	targets := []string{"hosts", "net0", "net1", "net2"}
	packet := sefl.NewTCPPacket()
	opts := core.Options{Trace: trace}

	mk := func(runner dist.Runner) *Service {
		svc := NewService(Config{
			Net:     buildDiffNet(t, diffFIB(), diffMACs()),
			Sources: sources,
			Targets: targets,
			Packet:  packet,
			Opts:    opts,
			Runner:  runner,
		})
		svc.RegisterRouter("rt", diffFIB())
		svc.RegisterSwitch("sw", diffMACs())
		if err := svc.Init(); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	pooled, local := mk(pool), mk(dist.InProcess(2, nil))

	check := func(step string) {
		t.Helper()
		if !reflect.DeepEqual(pooled.report.Reachable, local.report.Reachable) {
			t.Fatalf("%s: reachability matrix diverged:\n pool %v\nlocal %v", step, pooled.report.Reachable, local.report.Reachable)
		}
		if !reflect.DeepEqual(pooled.report.PathCount, local.report.PathCount) {
			t.Fatalf("%s: path count matrix diverged:\n pool %v\nlocal %v", step, pooled.report.PathCount, local.report.PathCount)
		}
	}
	check("init")
	snap := local.exportState()
	if reg.Counter("dist.setup.full").Value() != 1 {
		t.Fatalf("init: dist.setup.full = %d, want 1", reg.Counter("dist.setup.full").Value())
	}

	fds, err := GenFIBDeltas("rt", diffFIB(), "10.128.0.0/9", 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	mds, err := GenMACDeltas("sw", diffMACs(), 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []Delta
	for i := range fds {
		deltas = append(deltas, fds[i], mds[i])
	}
	for di, d := range deltas {
		pr, err := pooled.apply(d)
		if err != nil {
			t.Fatalf("delta %d (%s) pool: %v", di, d, err)
		}
		lr, err := local.apply(d)
		if err != nil {
			t.Fatalf("delta %d (%s) local: %v", di, d, err)
		}
		if pr.Action != lr.Action || pr.DirtySources != lr.DirtySources {
			t.Fatalf("delta %d (%s): divergent absorption: pool %+v vs local %+v", di, d, pr, lr)
		}
		check(fmt.Sprintf("delta %d (%s)", di, d))
	}
	// Every post-init re-verification must ride a delta or reuse setup, the
	// rebuild and the restore below included; a second full setup would mean
	// the Refresh plumbing silently degraded to re-shipping the network.
	full := func(step string) {
		t.Helper()
		if n := reg.Counter("dist.setup.full").Value(); n != 1 {
			t.Fatalf("%s re-shipped a full setup (full = %d)", step, n)
		}
	}
	full("delta stream")
	if reg.Counter("dist.setup.delta").Value() == 0 {
		t.Fatal("delta stream never exercised the delta setup path")
	}

	// Empty port 2 of the router: the fork list shrinks, the element model is
	// rebuilt, and the fleet gets the rebuilt model's entries as a delta.
	fib := slices.Clone(pooled.routers["rt"])
	var rebuilt bool
	for _, r := range fib {
		if r.Port != 2 {
			continue
		}
		d := Delta{Elem: "rt", Op: OpDelete, Prefix: fmt.Sprintf("%s/%d", sefl.NumberToIP(r.Prefix), r.Len)}
		pr, err := pooled.apply(d)
		if err != nil {
			t.Fatalf("rebuild delta %s pool: %v", d, err)
		}
		if _, err := local.apply(d); err != nil {
			t.Fatalf("rebuild delta %s local: %v", d, err)
		}
		rebuilt = rebuilt || pr.Action == actionRebuilt
		check(fmt.Sprintf("rebuild delta %s", d))
	}
	if !rebuilt {
		t.Fatal("port-emptying deletes never hit the rebuild tier")
	}
	full("the rebuild")

	// Restore the initial tables: every model is regenerated (the router's
	// port 2 comes back), and the fleet again gets a delta.
	deltas0 := reg.Counter("dist.setup.delta").Value()
	if _, err := pooled.restoreState(snap); err != nil {
		t.Fatalf("restore pool: %v", err)
	}
	if _, err := local.restoreState(snap); err != nil {
		t.Fatalf("restore local: %v", err)
	}
	check("restore")
	full("the restore")
	if reg.Counter("dist.setup.delta").Value() == deltas0 {
		t.Fatal("the restore reached the fleet without a delta")
	}
}

// TestResidentCloseClosesPool: a resident owns its service's Runner, so
// closing it dismisses the fleet: the pool refuses the next batch.
func TestResidentCloseClosesPool(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	pool := loopbackPool(t, 1, dist.Config{WorkersPerProc: 1})
	src := core.PortRef{Elem: "sw", Port: 1}
	svc := NewService(Config{
		Net:     buildDiffNet(t, diffFIB(), diffMACs()),
		Sources: []core.PortRef{src},
		Targets: []string{"hosts", "net0"},
		Packet:  sefl.NewTCPPacket(),
		Runner:  pool,
	})
	svc.RegisterRouter("rt", diffFIB())
	svc.RegisterSwitch("sw", diffMACs())
	if err := svc.Init(); err != nil {
		t.Fatal(err)
	}
	NewResident(svc).Close()
	res := pool.RunBatch(svc.cfg.Net, []dist.Job{{Name: "after close", Inject: src, Packet: sefl.NewTCPPacket()}})
	if len(res) != 1 || res[0].Err == nil {
		t.Fatalf("the pool ran a batch after its resident closed: %+v", res)
	}
}
