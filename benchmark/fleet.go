package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"symnet"
	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/obs"
	"symnet/internal/sched"
)

const fleetBatchesPerPass = 4

// fleetAllpairs pushes allpairsDept's job list through a dist.Pool whose one
// member is served in this process over loopback TCP: real frames, real
// sockets, no fork/exec. Its op_ms minus allpairs_dept's is the price of the
// fleet path (encode, ship, decode, merge); spawning is left out on purpose,
// because a pool pays it once.
type fleetAllpairs struct {
	dept
	wantDigest []uint64 // per job, from sched.RunBatch on a fresh department
}

func (w *fleetAllpairs) inputBytes() []byte { return w.jobList() }

func (w *fleetAllpairs) jobs(opts symnet.Options) []sched.Job {
	jobs := make([]sched.Job, len(w.sources))
	for i, src := range w.sources {
		jobs[i] = sched.Job{Name: src.String(), Inject: src, Packet: packet(), Opts: opts}
	}
	return jobs
}

// reference runs the same jobs through the in-process scheduler on a freshly
// built department and keeps each summary's digest.
func (w *fleetAllpairs) reference() error {
	if err := w.referenceMatrix(); err != nil {
		return err
	}
	fresh := datasets.NewDepartment(w.cfg)
	w.wantDigest = w.wantDigest[:0]
	for _, jr := range sched.RunBatch(fresh.Net, w.jobs(deptOptions()), 1) {
		if jr.Err != nil {
			return fmt.Errorf("reference batch, job %s: %w", jr.Name, jr.Err)
		}
		w.wantDigest = append(w.wantDigest, digest(dist.Summarize(jr.Result)))
	}
	return nil
}

func (w *fleetAllpairs) setup(tr *tracer, o *obs.Obs) (*instance, error) {
	opts := deptOptions()
	opts.Obs = o
	err := tr.stage("prog.compile", tr.under(), 0, func() error {
		_, err := symnet.Compile(w.d.Net, opts) // warms the programs the pool ships
		return err
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	member := &countingListener{Listener: ln}
	served := make(chan struct{})
	go func() {
		dist.ServeListener(member) // returns once the listener closes
		close(served)
	}()
	stop := func() {
		ln.Close()
		<-served
	}
	pool, err := dist.NewPool(dist.Config{Workers: []string{ln.Addr().String()}, WorkersPerProc: 1, Obs: o})
	if err != nil {
		stop()
		return nil, err
	}
	jobs := w.jobs(deptOptions())
	batch := func() error {
		results := pool.RunBatch(w.d.Net, jobs)
		for i, jr := range results {
			if jr.Err != nil {
				return fmt.Errorf("fleet_allpairs: job %s: %w", jr.Name, jr.Err)
			}
			if digest(jr.Summary) != w.wantDigest[i] {
				return fmt.Errorf("fleet_allpairs: job %s: summary differs from sched.RunBatch on the same job", jr.Name)
			}
		}
		return nil
	}
	// The first batch ships the full set-up.
	if err := batch(); err != nil {
		pool.Close()
		stop()
		return nil, err
	}
	setupBytes, setupReplies := member.toMember.Load(), member.fromMember.Load()

	// One access-switch egress port is marked changed before every pass, so
	// a pass sees one delta set-up and then three reuses.
	refreshed := core.PortRef{Elem: w.d.AccessSwitches[0], Port: 1, Out: true}
	inst := &instance{opsPerPass: fleetBatchesPerPass}
	inst.pass = func(r *recorder) {
		pool.Refresh(refreshed)
		for k := 0; k < fleetBatchesPerPass; k++ {
			op := tr.nextOp()
			root := tr.begin("op", 0, op)
			t := time.Now()
			s := tr.begin("dist.batch", root, op)
			err := batch()
			tr.end(s)
			d := time.Since(t)
			tr.end(root)
			r.op(d, err)
			if r.probes && k == 0 { // once a pass is sample enough
				probe := tr.begin("probe", 0, op)
				s := tr.begin("sched.batch", probe, op)
				for _, jr := range sched.RunBatch(w.d.Net, jobs, 1) {
					if jr.Err != nil {
						r.fail(jr.Err)
					}
				}
				tr.end(s)
				tr.end(probe)
			}
		}
	}
	inst.layers = func(r *recorder, m metrics) {
		deptSetupLayers(tr, &w.dept, m)
		m.set("dist.setup_bytes", float64(setupBytes))
		m.set("dist.bytes_out_per_op", perOp(float64(member.toMember.Load()-setupBytes), r.attempted))
		m.set("dist.bytes_in_per_op", perOp(float64(member.fromMember.Load()-setupReplies), r.attempted))
		if err := probeCodec(tr, w.d.Net); err != nil {
			r.fail(err)
		}
	}
	inst.close = func() {
		pool.Close()
		stop()
	}
	return inst, nil
}

// probeCodec times the set-up codec outside the pool: the coordinator's
// encode of network and programs, then the member's decode and install.
func probeCodec(tr *tracer, network *core.Network) error {
	type setup struct {
		Net      *core.WireNetwork
		Programs []core.WireProgramEntry
	}
	probe := tr.begin("probe", 0, 0)
	defer tr.end(probe)
	var buf bytes.Buffer
	err := tr.stage("dist.encode", probe, 0, func() error {
		wnet, err := core.EncodeNetwork(network)
		if err != nil {
			return err
		}
		progs, err := core.EncodePrograms(network)
		if err != nil {
			return err
		}
		return gob.NewEncoder(&buf).Encode(setup{wnet, progs})
	})
	if err != nil {
		return err
	}
	return tr.stage("dist.decode", probe, 0, func() error {
		var s setup
		if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
			return err
		}
		decoded, err := core.DecodeNetwork(s.Net)
		if err != nil {
			return err
		}
		return core.InstallPrograms(decoded, s.Programs)
	})
}

// countingListener counts the bytes that cross the member's connections, so
// the coordinator's traffic is read at the socket and not from the engine's
// own counters (which, in one process, add both ends into one name).
type countingListener struct {
	net.Listener
	toMember, fromMember atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.toMember.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.fromMember.Add(int64(n))
	return n, err
}
