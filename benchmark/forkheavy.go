package main

import (
	"fmt"
	"time"

	"symnet"
	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/obs"
	"symnet/internal/sefl"
)

// The fork-heavy network: 64 metadata bindings, then 4 forks of fan 8.
const (
	forkPrefix = 64
	forkDepth  = 4
	forkFan    = 8
	forkPaths  = 4096 // forkFan^forkDepth

	forkOpsPerPass = 40
)

// forkHeavy uses the engine the opposite way to allpairsDept: trivial guards,
// and 4096 paths each dragging 64 bindings through every fork, so cloning
// (persist, memory, expr interning) is all there is. The generator takes no
// seed: every run of this workload sees the same network.
type forkHeavy struct {
	net    *core.Network
	inject core.PortRef
}

func (w *forkHeavy) generate(int64) error {
	w.net, w.inject = datasets.ForkHeavy(forkPrefix, forkDepth, forkFan)
	return nil
}

func (w *forkHeavy) inputBytes() []byte {
	return []byte(fmt.Sprintf("forkheavy %d %d %d\n", forkPrefix, forkDepth, forkFan))
}

func (w *forkHeavy) reference() error { return nil }

func (w *forkHeavy) setup(tr *tracer, o *obs.Obs) (*instance, error) {
	var sess *symnet.Session
	err := tr.stage("prog.compile", tr.under(), 0, func() (err error) {
		sess, err = symnet.Compile(w.net, symnet.Options{Obs: o})
		return err
	})
	if err != nil {
		return nil, err
	}
	run := func() (*symnet.Result, error) {
		res, err := sess.Run(w.inject, sefl.NewIPPacket())
		if err == nil && (res.Stats.Delivered != forkPaths || res.Stats.Paths != forkPaths) {
			err = fmt.Errorf("forkheavy: %d paths, %d delivered, want %d of each", res.Stats.Paths, res.Stats.Delivered, forkPaths)
		}
		return res, err
	}
	if _, err := run(); err != nil {
		return nil, err
	}
	inst := &instance{opsPerPass: forkOpsPerPass, memo: sess.Options().SatMemo}
	inst.pass = func(r *recorder) {
		for k := 0; k < forkOpsPerPass; k++ {
			op := tr.nextOp()
			root := tr.begin("op", 0, op)
			t := time.Now()
			s := tr.begin("core.run", root, op)
			res, err := run()
			tr.end(s)
			d := time.Since(t)
			tr.end(root)
			r.op(d, err)
			if err == nil {
				r.c.addRun(res.Stats)
			}
		}
	}
	inst.layers = func(r *recorder, m metrics) {
		n, err := programBytes(w.net)
		if err != nil {
			r.fail(err)
		}
		m.set("prog.encode_bytes", float64(n))
	}
	inst.close = func() {}
	return inst, nil
}
