package dist

import (
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"symnet/internal/core"
	"symnet/internal/obs"
	"symnet/internal/prog"
	"symnet/internal/sched"
	"symnet/internal/sefl"
)

// testExitEnv is a fault-injection hook for the worker-crash tests and the
// CI kill-one-worker smoke: a worker whose environment names a job here ("*"
// matches any job) exits hard (simulating a crash) instead of reporting that
// job.
const testExitEnv = "SYMNET_DIST_TEST_EXIT_ON"

// testExitOnceEnv limits the injected crash to one worker fleet-wide: it
// names a marker file created with O_EXCL, and only the worker that wins the
// creation race crashes. Without it every worker that receives the named job
// crashes — including the survivors the coordinator re-dispatches to, which
// is the "poison job" scenario rather than the "machine died" one.
const testExitOnceEnv = "SYMNET_DIST_TEST_EXIT_ONCE"

// workerState is what a session keeps across its batches: the installed
// network at a setup generation. It lives and dies with the connection.
type workerState struct {
	net *core.Network
	gen uint64
}

// serveSession runs the worker side of the frame protocol on one stream:
// answer the handshake, then serve batches — install (or patch, or reuse)
// the setup, execute jobs from a queue as the coordinator sends them, send
// each result as it finishes — until bye or EOF. ServeListener calls it per
// accepted connection, with nc scoping the handshake read deadline; the wire
// and fuzz tests feed it a plain byte stream with nc nil.
func serveSession(c *conn, nc net.Conn) error {
	if nc != nil {
		nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	}
	f, err := c.recv()
	if err != nil {
		return fmt.Errorf("reading hello: %w", err)
	}
	if f.Kind != frameHello || f.Hello == nil {
		return fmt.Errorf("protocol: first frame is %d, want hello", f.Kind)
	}
	if f.Hello.Proto != protoVersion {
		return fmt.Errorf("protocol: coordinator speaks version %d, want %d", f.Hello.Proto, protoVersion)
	}
	if nc != nil {
		nc.SetReadDeadline(time.Time{})
	}
	if err := c.send(&frame{Kind: frameHelloAck, HelloAck: &helloAckFrame{Proto: protoVersion}}); err != nil {
		return fmt.Errorf("sending hello ack: %w", err)
	}

	st := &workerState{}
	for {
		f, err := c.recv()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("reading frame: %w", err)
		}
		switch f.Kind {
		case frameBye:
			return nil
		case frameBatch:
			if err := runWorkerBatch(c, st, f.Batch); err != nil {
				return err
			}
		default:
			return fmt.Errorf("protocol: unexpected frame %d, want batch", f.Kind)
		}
	}
}

// runWorkerBatch serves one batch: apply the setup mode, run the job queue
// against incoming jobs frames until the coordinator's end frame, then drain
// and report done.
func runWorkerBatch(c *conn, st *workerState, bf *batchFrame) error {
	if bf == nil {
		return fmt.Errorf("protocol: batch frame without payload")
	}
	// With metrics on, the worker collects into a per-batch registry —
	// labeled with its pool index — and ships the snapshot inside the done
	// frame. Per-batch registries keep repeated absorption sound: a resident
	// registry would re-ship (and double-count) earlier batches' totals.
	var o *obs.Obs
	var reg *obs.Registry
	if bf.Metrics {
		reg = obs.NewRegistry()
		o = obs.New(reg, nil)
		o.Shard = bf.Shard
		prog.RegisterMetrics(reg)
		// If this process serves -debug-addr (symworker), point the expvar
		// endpoint at the live registry.
		obs.SetDebugRegistry(reg)
		c.instrument(reg)
	}

	switch {
	case len(bf.SetupRaw) > 0:
		setup, err := decodeSetup(bf.SetupRaw)
		if err != nil {
			return fmt.Errorf("decoding setup: %w", err)
		}
		net, err := core.DecodeNetwork(setup.Net)
		if err != nil {
			return fmt.Errorf("decoding setup: %w", err)
		}
		if err := core.InstallPrograms(net, setup.Programs); err != nil {
			return fmt.Errorf("decoding setup: %w", err)
		}
		st.net, st.gen = net, bf.Gen
	case bf.Delta != nil:
		if st.net == nil {
			return fmt.Errorf("protocol: delta setup with no retained network")
		}
		if err := core.InstallPrograms(st.net, bf.Delta.Programs); err != nil {
			return fmt.Errorf("decoding delta: %w", err)
		}
		st.gen = bf.Gen
	default:
		if st.net == nil {
			return fmt.Errorf("protocol: reuse setup with no retained network")
		}
		if st.gen != bf.Gen {
			return fmt.Errorf("protocol: reuse setup at generation %d, worker holds %d", bf.Gen, st.gen)
		}
	}
	crashOn := os.Getenv(testExitEnv)
	t0 := time.Now()
	q := sched.NewQueue(st.net, bf.Workers, o, func(id int, jr sched.JobResult) {
		if crashOn != "" && (crashOn == "*" || jr.Name == crashOn) && claimInjectedCrash() {
			// Real crashes usually leave last words on stderr; emit some so
			// the kill-one-worker smoke can find them in the member's log.
			fmt.Fprintf(os.Stderr, "symnet-dist-worker: injected crash on job %q\n", jr.Name)
			os.Exit(3)
		}
		rf := &resultFrame{Index: id, Name: jr.Name}
		if jr.Err != nil {
			rf.Err = jr.Err.Error()
		}
		if jr.Result != nil {
			rf.Summary = packSummary(jr.Result)
		}
		// A send failure means the coordinator (or the connection) is gone;
		// the frame loop's next read surfaces it — jobs still queued are
		// discarded there, and the coordinator re-dispatches everything this
		// worker never reported.
		c.send(&frame{Kind: frameResult, Result: rf})
	})

	if err := recvJobs(c, q); err != nil {
		// Nobody will read the results of the jobs still pending; the running
		// ones cannot be interrupted and are drained.
		q.Abort()
		return err
	}
	q.Close()
	df := &doneFrame{Seq: bf.Seq}
	if reg != nil {
		// Batch wall time rides the snapshot under a per-worker name, so the
		// coordinator's merged view keeps each worker's wall clock (gauges
		// merge by max, and the names are distinct).
		reg.Gauge(fmt.Sprintf("dist.shard%d.wall_ns", bf.Shard)).Set(time.Since(t0).Nanoseconds())
		df.Metrics = reg.Snapshot()
	}
	if err := c.send(&frame{Kind: frameDone, Done: df}); err != nil {
		return fmt.Errorf("sending done: %w", err)
	}
	return nil
}

// recvJobs feeds the queue from the batch's jobs frames until the
// coordinator's end frame.
func recvJobs(c *conn, q *sched.Queue) error {
	for {
		f, err := c.recv()
		if err != nil {
			return fmt.Errorf("reading frame: %w", err)
		}
		switch f.Kind {
		case frameJobs:
			if f.Jobs == nil {
				return fmt.Errorf("protocol: jobs frame without payload")
			}
			for _, wj := range f.Jobs.Jobs {
				pkt, err := sefl.DecodeInstr(wj.Packet)
				if err != nil {
					return fmt.Errorf("job %q: %w", wj.Name, err)
				}
				q.Add(wj.Index, sched.Job{Name: wj.Name, Inject: wj.Inject, Packet: pkt, Opts: wj.Opts.options()})
			}
		case frameEnd:
			return nil
		default:
			return fmt.Errorf("protocol: unexpected frame %d in batch", f.Kind)
		}
	}
}

// claimInjectedCrash reports whether this worker should act on the injected
// crash: always without the once-marker, else only for the single worker
// that wins the marker file's O_EXCL creation race.
func claimInjectedCrash() bool {
	path := os.Getenv(testExitOnceEnv)
	if path == "" {
		return true
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	f.Close()
	return true
}
