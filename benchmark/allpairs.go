package main

import (
	"fmt"
	"time"

	"symnet"
	"symnet/internal/obs"
	"symnet/internal/sched"
)

// allpairsDept holds the department resident in a Session and asks the
// 16x18 all-pairs question over and over: compilation is all in set-up, so
// the timed section is guard evaluation, solver work and matrix building.
type allpairsDept struct {
	dept
}

const allpairsOpsPerPass = 5

func (w *allpairsDept) inputBytes() []byte { return w.jobList() }
func (w *allpairsDept) reference() error   { return w.referenceMatrix() }

func (w *allpairsDept) setup(tr *tracer, o *obs.Obs) (*instance, error) {
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
	query := func() (*symnet.AllPairsReport, error) {
		return sess.AllPairs(w.sources, packet(), w.targets)
	}
	check := func(rep *symnet.AllPairsReport, err error) error {
		if err == nil && !matrixOf(rep).equal(w.want) {
			err = fmt.Errorf("allpairs_dept: matrix differs from the per-source AST-interpreter recomputation")
		}
		return err
	}
	if err := check(query()); err != nil {
		return nil, err
	}

	// The probes get a session of their own, without the registry, so that
	// the registry's counters are the operations' alone.
	var probes *symnet.Session
	var jobs []sched.Job
	if tr != nil {
		if probes, err = symnet.Compile(w.d.Net, deptOptions()); err != nil {
			return nil, err
		}
		for _, src := range w.sources {
			jobs = append(jobs, sched.Job{Name: src.String(), Inject: src, Packet: packet(), Opts: probes.Options()})
		}
	}
	inst := &instance{opsPerPass: allpairsOpsPerPass, memo: sess.Options().SatMemo}
	inst.pass = func(r *recorder) {
		for k := 0; k < allpairsOpsPerPass; k++ {
			op := tr.nextOp()
			root := tr.begin("op", 0, op)
			t := time.Now()
			s := tr.begin("verify.allpairs", root, op)
			rep, err := query()
			tr.end(s)
			d := time.Since(t)
			tr.end(root)
			err = check(rep, err)
			r.op(d, err)
			if err != nil {
				continue
			}
			for _, res := range rep.Results {
				r.c.addRun(res.Stats)
			}
			reached, unreached := matrixOf(rep).cells()
			r.c.pairsDelivered += reached
			r.c.pairsUnreach += unreached
			if r.probes && k == 0 { // once a pass is sample enough
				probeAllPairs(tr, op, probes, jobs, r)
			}
		}
	}
	inst.layers = func(r *recorder, m metrics) {
		deptSetupLayers(tr, &w.dept, m)
	}
	inst.close = func() {}
	return inst, nil
}

// probeAllPairs calls the two layers under Session.AllPairs directly with
// the operation's own inputs: the scheduler over the job list, then the
// engine one source at a time. The spans hang under a "probe" root, outside
// the operation, so they never count towards its time.
func probeAllPairs(tr *tracer, op int, sess *symnet.Session, jobs []sched.Job, r *recorder) {
	probe := tr.begin("probe", 0, op)
	s := tr.begin("sched.batch", probe, op)
	for _, jr := range sched.RunBatch(sess.Network(), jobs, 1) {
		if jr.Err != nil {
			r.fail(jr.Err)
		}
	}
	tr.end(s)
	for _, j := range jobs {
		s := tr.begin("core.run", probe, op)
		_, err := sess.Run(j.Inject, j.Packet)
		tr.end(s)
		if err != nil {
			r.fail(err)
		}
	}
	tr.end(probe)
}
