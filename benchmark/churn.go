package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symnet"
	"symnet/internal/churn"
	"symnet/internal/dist"
	"symnet/internal/obs"
)

const (
	churnSwitches    = 4 // asw0..asw3 take the MAC deltas
	churnMACDeltas   = 16
	churnFIBDeltas   = 2 // on m1
	churnOpsPerPass  = churnMACDeltas + churnFIBDeltas
	churnWatchWait   = 2 * time.Second
	churnReadEvery   = 5 * time.Millisecond
	churnCarrier     = "198.18.0.0/15" // RFC 2544 range: fresh /24s for inserts
	churnExitProbes  = 1
	churnWatchBuffer = 64
)

// serveChurn holds the department resident behind Session.Serve, with one
// watcher and one reader, and feeds it one rule delta at a time: writes
// beside reads on the same versioned report. A pass is a fixed script of 16
// MAC deltas over four access switches (patched in place, few sources
// dirty) and 2 route deltas on m1 (recompiled, every source dirty); the
// resident tables are restored between passes so each pass does the same
// work. One writer keeps coalescing, and so every count, deterministic.
type serveChurn struct {
	dept
	script    []symnet.Delta
	exitProbe []symnet.Delta
}

func (w *serveChurn) generate(seed int64) error {
	if err := w.dept.generate(seed); err != nil {
		return err
	}
	// Every delta is drawn against the original tables and touches a rule no
	// other delta of the script touches, so the script applies in any state
	// the script itself can produce. Kinds and ports are fixed and only the
	// rules vary with the seed, because what a delta costs depends on both: a
	// route moved onto m1's management leg opens paths that one moved onto the
	// exit leg does not. Rules that are alone on their port are passed over,
	// since deleting one changes the element's port set and with it the tier.
	draw := seed << 16
	used := map[string]bool{
		w.d.ASAMac:         true,
		"141.85.37.0/24":   true,
		"192.168.137.0/24": true,
		"0.0.0.0/0":        true,
	}
	pick := func(kind string, port func(int) bool, gen func(seed int64) ([]symnet.Delta, error)) (symnet.Delta, error) {
		for tries := 0; tries < 4096; tries++ {
			draw++
			ds, err := gen(draw)
			if err != nil {
				return symnet.Delta{}, err
			}
			d := ds[0]
			rule := d.MAC + d.Prefix
			if d.Op == kind && !used[rule] && (kind == symnet.OpDelete || port(d.Port)) {
				used[rule] = true
				return d, nil
			}
		}
		return symnet.Delta{}, fmt.Errorf("serve_churn: no %s delta found", kind)
	}
	hostPort := func(p int) bool { return p != 0 } // port 0 of an access switch is its uplink
	m1ToExit := func(p int) bool { return p == 2 }
	// The cliff is a route on exit that points back inside (port 0): 1.3 to
	// 1.9 s. One onto the internet leg costs what a route delta on m1 does.
	exitToInside := func(p int) bool { return p == 0 }
	macKinds := []string{symnet.OpInsert, symnet.OpDelete, symnet.OpModify, symnet.OpInsert}
	fibKinds := []string{symnet.OpInsert, symnet.OpModify}
	fib := func(elem string) func(int64) ([]symnet.Delta, error) {
		return func(s int64) ([]symnet.Delta, error) {
			return churn.GenFIBDeltas(elem, w.d.FIBs[elem], churnCarrier, 1, s)
		}
	}
	var macs, routes []symnet.Delta
	for i := 0; i < churnMACDeltas; i++ {
		sw := w.d.AccessSwitches[i%churnSwitches]
		d, err := pick(macKinds[i/churnSwitches%len(macKinds)], hostPort, func(s int64) ([]symnet.Delta, error) {
			return churn.GenMACDeltas(sw, w.d.MACTables[sw], 1, s)
		})
		if err != nil {
			return err
		}
		macs = append(macs, d)
	}
	for i := 0; i < churnFIBDeltas; i++ {
		d, err := pick(fibKinds[i%len(fibKinds)], m1ToExit, fib("m1"))
		if err != nil {
			return err
		}
		routes = append(routes, d)
	}
	// One route delta sits in the middle of the pass and one at its end.
	half := churnMACDeltas / 2
	w.script = append(append(append(append(w.script[:0], macs[:half]...), routes[0]), macs[half:]...), routes[1:]...)
	w.exitProbe = w.exitProbe[:0]
	for i := 0; i < churnExitProbes; i++ {
		d, err := pick(symnet.OpInsert, exitToInside, fib("exit"))
		if err != nil {
			return err
		}
		w.exitProbe = append(w.exitProbe, d)
	}
	return nil
}

func (w *serveChurn) inputBytes() []byte {
	var b bytes.Buffer
	b.Write(w.jobList())
	symnet.EncodeDeltas(&b, w.script)
	symnet.EncodeDeltas(&b, w.exitProbe)
	return b.Bytes()
}

func (w *serveChurn) reference() error { return w.referenceMatrix() }

func (w *serveChurn) setup(tr *tracer, o *obs.Obs) (*instance, error) {
	ctx := context.Background()
	opts := deptOptions()
	opts.Obs = o
	var sess *symnet.Session
	err := tr.stage("prog.compile", tr.under(), 0, func() (err error) {
		sess, err = symnet.Compile(w.d.Net, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	var sv *symnet.Serving
	err = tr.stage("churn.init", tr.under(), 0, func() (err error) {
		sv, err = sess.Serve(symnet.ServeConfig{
			Sources: w.sources, Targets: w.targets, Packet: packet(),
			Routers: w.d.FIBs, Switches: w.d.MACTables,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	sub := sv.Watch(churnWatchBuffer)
	first := sv.Current()
	if first.Version != 1 || !matrixOf(first.Report).equal(w.want) {
		sv.Close()
		return nil, fmt.Errorf("serve_churn: version %d's report differs from the per-source AST-interpreter recomputation", first.Version)
	}
	base, err := sv.Export(ctx)
	if err != nil {
		sv.Close()
		return nil, err
	}
	reader := startReader(sv)

	// nextEvent waits for the one watch event a publication owes.
	version := first.Version
	nextEvent := func() error {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				return fmt.Errorf("serve_churn: watch subscription dropped")
			}
			if ev.Version != version+1 {
				return fmt.Errorf("serve_churn: watch event for version %d after %d", ev.Version, version)
			}
			version = ev.Version
			return nil
		case <-time.After(churnWatchWait):
			return fmt.Errorf("serve_churn: no watch event within %v", churnWatchWait)
		}
	}
	// apply is one operation: submit a delta, wait for its watch event.
	apply := func(r *recorder, d symnet.Delta, name string) (time.Duration, *symnet.ApplyReport) {
		op := tr.nextOp()
		root := tr.begin("op", 0, op)
		t := time.Now()
		s := tr.begin(name, root, op)
		rep, err := sv.Apply(ctx, d)
		tr.end(s)
		applied := time.Now()
		s = tr.begin("churn.publish_lag", root, op)
		if err == nil {
			err = nextEvent()
		}
		tr.end(s)
		done := time.Now()
		tr.end(root)
		took := done.Sub(t)
		switch {
		case err != nil:
		case rep.Applied != 1 || rep.Batch == nil:
			err = fmt.Errorf("serve_churn: delta %s rejected: %s", d, rep.Statuses[0].Err)
		case rep.Batch.Version != version:
			err = fmt.Errorf("serve_churn: delta %s published version %d, watch saw %d", d, rep.Batch.Version, version)
		case rep.Batch.Deltas != 1:
			err = fmt.Errorf("serve_churn: delta %s rode in a batch of %d", d, rep.Batch.Deltas)
		}
		r.op(took, err)
		if err != nil {
			return took, nil
		}
		r.c.publishLagNs += done.Sub(applied).Nanoseconds()
		return took, rep
	}

	inst := &instance{opsPerPass: churnOpsPerPass}
	inst.pass = func(r *recorder) {
		for _, d := range w.script {
			name := "churn.mac_delta"
			if d.Prefix != "" {
				name = "churn.fib_delta"
			}
			took, rep := apply(r, d, name)
			if rep == nil {
				continue
			}
			b := rep.Batch
			r.c.dirtySources += b.DirtySources
			r.c.cellsReverif += b.CellsReverified
			r.c.transitions += b.Transitions
			r.c.portsPatched += b.PortsPatched
			r.c.portsRecomp += b.PortsRecompiled
			r.c.elemsRebuilt += b.ElemsRebuilt
			if d.Prefix != "" {
				r.c.fibDeltaNs += took.Nanoseconds()
				r.c.fibDeltas++
			} else {
				r.c.macDeltaNs += took.Nanoseconds()
				r.c.macDeltas++
			}
		}
	}
	var lastRestore time.Duration
	inst.between = func() error {
		t := time.Now()
		_, err := sv.Restore(ctx, base)
		lastRestore = time.Since(t)
		if err != nil {
			return err
		}
		return nextEvent()
	}
	inst.finish = func(r *recorder) error {
		if n := reader.violations.Load(); n > 0 {
			r.fail(fmt.Errorf("serve_churn: reader saw the version go backwards %d times", n))
		}
		// The passes left the tables restored; replay the script once more and
		// hold the published report against a from-scratch verification of
		// the tables the service says it now has.
		scratch := &recorder{}
		for _, d := range w.script {
			apply(scratch, d, "churn.final")
		}
		if scratch.failed > 0 {
			return fmt.Errorf("%s", scratch.firstErr)
		}
		final, err := sv.Export(ctx)
		if err != nil {
			return err
		}
		fresh, err := w.rebuild(final.Routers, final.Switches)
		if err != nil {
			return err
		}
		fsess, err := symnet.Compile(fresh.Net, deptOptions())
		if err != nil {
			return err
		}
		var want *symnet.AllPairsReport
		err = tr.stage("verify.allpairs", tr.under(), 0, func() (err error) {
			want, err = fsess.AllPairs(w.sources, packet(), w.targets)
			return err
		})
		if err != nil {
			return err
		}
		got := sv.Current().Report
		if !matrixOf(got).equal(matrixOf(want)) {
			return fmt.Errorf("serve_churn: final published matrix differs from a from-scratch all-pairs on the final tables")
		}
		for i := range want.Results {
			if digest(dist.Summarize(got.Results[i])) != digest(dist.Summarize(want.Results[i])) {
				return fmt.Errorf("serve_churn: final published result for %s differs from a from-scratch run", w.sources[i])
			}
		}
		return nil
	}
	inst.layers = func(r *recorder, m metrics) {
		deptSetupLayers(tr, &w.dept, m)
		m.set("churn.restore_ms", ms(lastRestore))
		m.set("churn.read_us", reader.meanMicros())
		// The cliff found while sizing the pass: a route on exit that points
		// back inside costs about ten full verifications. Timed here, outside
		// every pass.
		var total time.Duration
		scratch := &recorder{tr: tr}
		for _, d := range w.exitProbe {
			took, _ := apply(scratch, d, "churn.exit_fib_delta")
			total += took
		}
		if scratch.failed > 0 {
			r.fail(fmt.Errorf("%s", scratch.firstErr))
		}
		m.set("churn.exit_fib_delta_ms", ms(total)/float64(len(w.exitProbe)))
	}
	inst.close = func() {
		reader.stop()
		sub.Cancel()
		sv.Close()
	}
	return inst, nil
}

// reader is the concurrent read load: every 5 ms it loads the current
// report, sums its reachable cells and checks the version never goes back.
type reader struct {
	quit       chan struct{}
	wg         sync.WaitGroup
	violations atomic.Int64
	reads      atomic.Int64
	readNs     atomic.Int64
	sink       atomic.Int64
}

func startReader(sv *symnet.Serving) *reader {
	rd := &reader{quit: make(chan struct{})}
	rd.wg.Add(1)
	go func() {
		defer rd.wg.Done()
		tick := time.NewTicker(churnReadEvery)
		defer tick.Stop()
		var last uint64
		for {
			select {
			case <-rd.quit:
				return
			case <-tick.C:
			}
			t := time.Now()
			pr := sv.Current()
			reached, _ := matrixOf(pr.Report).cells()
			rd.readNs.Add(time.Since(t).Nanoseconds())
			rd.reads.Add(1)
			rd.sink.Add(int64(reached))
			if pr.Version < last {
				rd.violations.Add(1)
			}
			last = pr.Version
		}
	}()
	return rd
}

func (rd *reader) stop() {
	close(rd.quit)
	rd.wg.Wait()
}

func (rd *reader) meanMicros() float64 {
	return perOp(float64(rd.readNs.Load())/1e3, int(rd.reads.Load()))
}
