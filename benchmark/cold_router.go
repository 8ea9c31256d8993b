package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"symnet"
	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/models"
	"symnet/internal/obs"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// Table 2's 33% row: 62,500 of the 188,500 RouteViews prefixes, 16 next hops.
const (
	coldRoutes = 62500
	coldPorts  = 16
	// coldFIBSeed fixes the set of prefixes. Across CoreFIB seeds the router
	// allocates 418 to 467 MB per operation, because nesting and with it the
	// number of exclusions is drawn at random; gates of 2 % cannot sit on top
	// of that. So every run gets the same prefixes and the run's seed decides
	// the order of the snapshot's lines and the numbering of the next hops:
	// the same router under another name.
	coldFIBSeed = 1
)

// coldRouter times the cold path end to end: a FIB snapshot as text, parsed,
// modelled, compiled and run once. Nothing is resident between operations.
type coldRouter struct {
	text      []byte // the snapshot, as FIB.WriteTo wrote it
	wantPaths int    // distinct egress ports of the generated FIB
	last      *symnet.Session
}

func (w *coldRouter) generate(seed int64) error {
	fib := datasets.CoreFIB(coldRoutes, coldPorts, coldFIBSeed)
	rng := rand.New(rand.NewSource(seed))
	relabel := rng.Perm(coldPorts)
	for i := range fib {
		fib[i].Port = relabel[fib[i].Port]
	}
	rng.Shuffle(len(fib), func(i, j int) { fib[i], fib[j] = fib[j], fib[i] })
	var buf bytes.Buffer
	if _, err := fib.WriteTo(&buf); err != nil {
		return err
	}
	back, err := tables.ParseFIB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("cold_router: snapshot does not parse: %w", err)
	}
	if !slices.Equal(fib, back) {
		return fmt.Errorf("cold_router: snapshot does not round-trip through ParseFIB")
	}
	w.text = buf.Bytes()
	w.wantPaths = len(fib.Ports())
	return nil
}

func (w *coldRouter) inputBytes() []byte { return w.text }

// reference has nothing left to do: the expected path count was taken from
// the generated FIB, before the text the program parses was written.
func (w *coldRouter) reference() error { return nil }

func (w *coldRouter) setup(tr *tracer, o *obs.Obs) (*instance, error) {
	var lpmExclusions, encodeBytes int
	inst := &instance{opsPerPass: 1}
	inst.pass = func(r *recorder) {
		var (
			fib  tables.FIB
			net  *core.Network
			sess *symnet.Session
			res  *symnet.Result
		)
		op := tr.nextOp()
		root := tr.begin("op", 0, op)
		t := time.Now()
		err := tr.stage("tables.parse", root, op, func() (err error) {
			fib, err = tables.ParseFIB(bytes.NewReader(w.text))
			return err
		})
		if err == nil {
			err = tr.stage("models.router", root, op, func() error {
				net = core.NewNetwork()
				return models.Router(net.AddElement("R", "router", 1, coldPorts), fib, models.Egress)
			})
		}
		if err == nil {
			err = tr.stage("prog.compile", root, op, func() (err error) {
				sess, err = symnet.Compile(net, symnet.Options{Obs: o})
				return err
			})
		}
		if err == nil {
			err = tr.stage("core.run", root, op, func() (err error) {
				res, err = sess.Run(core.PortRef{Elem: "R", Port: 0}, sefl.NewIPPacket())
				return err
			})
		}
		d := time.Since(t)
		tr.end(root)

		if err == nil && res.Stats.Delivered != w.wantPaths {
			err = fmt.Errorf("cold_router: %d delivered paths, want %d (one per egress port)", res.Stats.Delivered, w.wantPaths)
		}
		r.op(d, err)
		if err != nil {
			return
		}
		r.c.addRun(res.Stats)
		w.last = sess

		if r.probes {
			probe := tr.begin("probe", 0, op)
			var compiled []tables.CompiledRoute
			tr.stage("tables.lpm", probe, op, func() error {
				compiled = tables.CompileLPM(fib)
				return nil
			})
			lpmExclusions = tables.NumExclusions(compiled)
			encodeBytes, err = programBytes(net)
			tr.end(probe)
			if err != nil {
				r.fail(err)
			}
		}
	}
	inst.layers = func(r *recorder, m metrics) {
		m.set("tables.lpm_exclusions", float64(lpmExclusions))
		m.set("prog.encode_bytes", float64(encodeBytes))
	}
	inst.close = func() { w.last = nil }
	return inst, nil
}

// programBytes is the size of the network's compiled programs in the form
// the fleet ships them: core.EncodePrograms, gob-encoded.
func programBytes(net *core.Network) (int, error) {
	progs, err := core.EncodePrograms(net)
	if err != nil {
		return 0, err
	}
	var n countWriter
	if err := gob.NewEncoder(&n).Encode(progs); err != nil {
		return 0, err
	}
	return int(n), nil
}

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// addRun folds one run's engine statistics into the section's totals.
func (c *counts) addRun(s core.RunStats) {
	c.hops += s.Hops
	c.paths += s.Paths
	c.pruned += s.Pruned
	c.adds += s.Solver.Adds
	c.satChecks += s.Solver.SatChecks
	c.branches += s.Solver.Branches
}
