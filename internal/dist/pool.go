package dist

import (
	"fmt"
	"net"
	"slices"
	"time"

	"symnet/internal/core"
	"symnet/internal/obs"
)

// Pool is a persistent fleet of workers reused across batches: resident
// `symworker -listen` processes reached over TCP (Config.Workers), each
// connection holding the installed network between RunBatch calls, so
// repeated batches — the churn re-verification loop above all — pay the setup
// encode once per connection and then ship only deltas (Refresh) or nothing
// (unchanged network).
//
// A batch is a shard map and a crash path. Dispatch is static: the live
// members split the batch into contiguous shards (shardBounds), one jobs frame
// each, and a job has exactly one holder from then until its result arrives —
// jobs share nothing but the immutable network, so there is nothing to
// coordinate between healthy members, and moving work between them never
// measured faster than leaving it (ROADMAP, Settled). The one dynamic
// step is a death: a worker that dies mid-batch has its jobs re-dispatched to
// the least-loaded survivor up to jobRetries times each, then they fail with
// a pointed per-job error; a dead member gets one redial per batch first, and
// a redialed member starts from the full setup like any new connection. None
// of this affects results: each job is deterministic in isolation, so
// RunBatch output is byte-identical across every pool size and crash
// pattern — the property tests in this package pin that.
//
// A Pool is not safe for concurrent use; serialize RunBatch/Refresh/Close
// calls (Session.Serve does, via the churn service's single apply goroutine).
type Pool struct {
	cfg Config
	o   *obs.Obs
	reg *obs.Registry
	seq uint64

	// gen is the setup generation of the coordinator's network, bumped by
	// every Refresh. Every live member is sent every batch, so a member that
	// held the last batch's setup needs only what changed since: changed
	// lists the entries refreshed since the last batch shipped (first-change
	// order, no repeats).
	gen     uint64
	changed []core.PortRef

	workers []*poolWorker
	events  chan wEvent
	closed  bool
}

// poolWorker is the coordinator's handle on one fleet member.
type poolWorker struct {
	id   int
	addr string

	nc   net.Conn
	conn *conn
	t0   time.Time

	// gen is the setup generation the member holds installed on this
	// connection: the last batch's, or 0 (nothing yet) on a new connection.
	// net is the network that setup was built from; a batch on another
	// network ships its full setup.
	gen uint64
	net *core.Network

	alive      bool
	dialed     bool // at least one dial attempted (first dial gets the retry window)
	readerDone bool
	redialed   bool // one redial attempt per batch
	batchDone  bool // done frame seen for the current batch

	// outstanding is the dispatch-ordered list of job indices this worker
	// has been sent and not yet resolved (result or death). A job is in at
	// most one worker's list: its holder, the only member whose result for it
	// is accepted.
	outstanding []int
}

// wEvent is one item on the pool's central event channel: a frame from a
// worker, or its reader's terminal error.
type wEvent struct {
	w   *poolWorker
	f   *frame
	err error
}

// NewPool builds the fleet: one pool worker per cfg.Workers address. A
// Config naming no address is an error here — NewRunner is the constructor
// that falls back to in-process. Each member completes the session handshake
// before NewPool returns; addresses that refuse the dial join the pool dead
// (batches shard over the survivors and retry the redial), and construction
// fails only when no member at all is reachable.
func NewPool(cfg Config) (*Pool, error) {
	p := &Pool{cfg: cfg, o: cfg.Obs, gen: 1}
	if p.o != nil {
		p.reg = p.o.Reg
	}
	n := len(cfg.Workers)
	if n == 0 {
		return nil, fmt.Errorf("dist: NewPool: config names no fleet (no Workers)")
	}
	p.events = make(chan wEvent, 4*n+16)
	spawned := p.reg.Counter("dist.worker.spawned")
	var firstDial error
	for k, addr := range cfg.Workers {
		w := &poolWorker{id: k, addr: addr}
		p.workers = append(p.workers, w)
		if err := p.connect(w); err != nil {
			// A fleet member that is down at construction joins the pool
			// dead: batches shard over the survivors, and every batch start
			// retries the redial in case it comes back. Construction fails
			// only when nobody answers.
			if firstDial == nil {
				firstDial = err
			}
			w.readerDone = true
			continue
		}
		spawned.Inc()
		w.alive = true
		p.startReader(w)
	}
	if p.liveCount() == 0 {
		return nil, fmt.Errorf("dist: no fleet member reachable: %w", firstDial)
	}
	return p, nil
}

// Refresh records that the code behind the given ports changed (the churn
// service calls it after reconciling a rule delta, naming every entry a
// rebuilt or restored model wrote): the pool bumps its setup generation and
// the next batch ships workers just those entries' source, which they
// recompile. No refs is a no-op.
func (p *Pool) Refresh(refs ...core.PortRef) {
	if len(refs) == 0 {
		return
	}
	p.gen++
	for _, r := range refs {
		if !slices.Contains(p.changed, r) {
			p.changed = append(p.changed, r)
		}
	}
}

// RunBatch runs every job across the fleet, returning results in job order —
// byte-identical (as summaries) to sched.RunBatch regardless of fleet size or
// crashes. A batch-wide setup failure — or a job that sets a reference mode
// (Options.ASTInterp), which runs in-process only —
// poisons every job; per-worker failures poison only jobs that exhausted
// their retry budget.
//
// Per-job Options.SatMemo caches cannot cross the process boundary and are
// ignored; per-job solver statistics are in each Summary.Stats.Solver,
// deterministic either way.
func (p *Pool) RunBatch(network *core.Network, jobs []Job) []JobResult {
	out := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	if err := p.runBatch(network, jobs, out); err != nil {
		for i := range out {
			if out[i].Summary == nil && out[i].Err == nil {
				out[i] = JobResult{Name: jobs[i].Name, Err: err}
			}
		}
	}
	return out
}

// batchRun is the coordinator's per-batch dispatch state.
type batchRun struct {
	net  *core.Network
	jobs []Job
	wire []wireJob
	out  []JobResult

	// doneCount counts resolved jobs (result accepted, or failed for good);
	// an unresolved job is in exactly one live worker's outstanding list.
	doneCount int
	crashes   []int
	// lostTo is, per job, the last worker death it was caught in ("worker N
	// died: …"): the reason its error carries if the budget runs out.
	lostTo []string

	metrics bool

	// Lazily built, shared across workers within the batch.
	setupRaw []byte
}

func (br *batchRun) setupBlob() ([]byte, error) {
	if br.setupRaw == nil {
		s, err := buildSetup(br.net)
		if err != nil {
			return nil, err
		}
		raw, err := encodeSetup(s)
		if err != nil {
			return nil, fmt.Errorf("dist: encode setup: %w", err)
		}
		br.setupRaw = raw
	}
	return br.setupRaw, nil
}

func (p *Pool) runBatch(network *core.Network, jobs []Job, out []JobResult) error {
	if p.closed {
		return fmt.Errorf("dist: RunBatch on closed pool")
	}
	p.seq++
	p.reg.Counter("dist.pool.batches").Inc()
	for _, w := range p.workers {
		w.redialed, w.batchDone = false, false
	}
	p.drainPending()
	// Dead members get one revival attempt per batch (the resident process
	// may have restarted, or the drop was transient).
	for _, w := range p.workers {
		if !w.alive {
			if err := p.revive(w); err == nil {
				p.reg.Counter("dist.worker.reconnects").Inc()
			}
		}
	}
	live := p.liveWorkers()
	if len(live) == 0 {
		return fmt.Errorf("dist: no live workers")
	}

	n := len(jobs)
	br := &batchRun{
		net: network, jobs: jobs, out: out,
		crashes: make([]int, n),
		lostTo:  make([]string, n),
		metrics: p.reg != nil,
	}
	wire, err := buildShard(jobs, 0, n)
	if err != nil {
		return err
	}
	br.wire = wire

	finDispatch := p.o.Span("dispatch", "", -1)
	for _, w := range live {
		if err := p.sendBatch(w, br); err != nil {
			finDispatch()
			return err
		}
	}
	// Every live member now holds generation gen; a member that joins later
	// is a new connection and gets the full setup.
	p.changed = nil
	// The shard map: contiguous, over the members alive now. A batch smaller
	// than the fleet leaves some shards empty; those members still opened the
	// batch and answer its end with done.
	for k, w := range live {
		lo, hi := shardBounds(n, k, len(live))
		p.dispatch(w, br, seqRange(lo, hi))
	}
	finDispatch()

	for br.doneCount < n {
		ev := <-p.events
		if ev.err != nil {
			p.handleDown(ev.w, br, ev.err)
		} else if ev.f.Kind == frameResult {
			p.handleResult(ev.w, br, ev.f.Result)
		}
	}

	// Every job is accounted for; release the workers from the batch and
	// collect their done frames (which carry the metrics snapshots).
	for _, w := range p.workers {
		if !w.alive {
			continue
		}
		if err := w.conn.send(&frame{Kind: frameEnd}); err != nil {
			w.closeTransport()
		}
	}
	waiting := 0
	for _, w := range p.workers {
		if w.alive {
			waiting++
		}
	}
	for waiting > 0 {
		ev := <-p.events
		if ev.err != nil {
			if ev.w.alive {
				p.reap(ev.w, ev.err, false)
				if !ev.w.batchDone {
					ev.w.batchDone = true
					waiting--
				}
			}
			continue
		}
		if ev.f.Kind == frameDone {
			d := ev.f.Done
			if d != nil && d.Metrics != nil && p.reg != nil && d.Metrics.Schema == obs.SchemaVersion {
				p.reg.Absorb(d.Metrics)
			}
			if !ev.w.batchDone {
				ev.w.batchDone = true
				waiting--
			}
		}
		// Anything else here is a frame no job is waiting for — drop.
	}
	return nil
}

// jobRetries is each job's crash re-dispatch budget: a job lost to a dying
// worker is re-sent to a survivor this many times before it fails with a
// per-job error, so a job that kills every worker it lands on (a poison job)
// costs the fleet jobRetries+1 members.
const jobRetries = 2

func seqRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// sendBatch opens the batch on one worker with the cheapest sufficient setup
// mode. A member holding the last batch's setup of the same network gets
// reuse (nothing changed since) or a delta (only the changed entries'
// source); a new connection, or a batch on another network, gets the full
// blob. Encode failures are batch-fatal; send failures surface through the
// worker's reader.
func (p *Pool) sendBatch(w *poolWorker, br *batchRun) error {
	bf := &batchFrame{
		Seq: p.seq, Gen: p.gen,
		Workers: p.cfg.WorkersPerProc, Shard: w.id,
		Metrics: br.metrics,
	}
	mode := "full"
	if w.gen != 0 && w.net == br.net {
		if len(p.changed) == 0 {
			mode = "reuse"
		} else {
			progs, err := core.EncodeProgramsFor(br.net, p.changed)
			if err != nil {
				return fmt.Errorf("dist: %w", err)
			}
			bf.Delta = &deltaFrame{Programs: progs}
			mode = "delta"
		}
	}
	if mode == "full" {
		raw, err := br.setupBlob()
		if err != nil {
			return err
		}
		bf.SetupRaw = raw
	}
	p.reg.Counter("dist.setup." + mode).Inc()
	if err := w.conn.send(&frame{Kind: frameBatch, Batch: bf}); err != nil {
		w.closeTransport()
		return nil
	}
	w.gen, w.net = p.gen, br.net
	return nil
}

// dispatch ships the given jobs to a worker, which holds them from here on.
func (p *Pool) dispatch(w *poolWorker, br *batchRun, idxs []int) {
	if len(idxs) == 0 {
		return
	}
	wj := make([]wireJob, len(idxs))
	for i, idx := range idxs {
		wj[i] = br.wire[idx]
		w.outstanding = append(w.outstanding, idx)
	}
	if err := w.conn.send(&frame{Kind: frameJobs, Jobs: &jobsFrame{Jobs: wj}}); err != nil {
		// Force the reader's terminal event; the crash path re-dispatches.
		w.closeTransport()
	}
}

// handleResult records a job's result — from its holder. A result naming a
// job the sender does not hold (another member's, one already resolved, an
// index outside the batch) is dropped, and a summary that does not unpack
// within the job's own hop and path budgets fails its job: every member is a
// remote process whose bytes the coordinator did not write.
func (p *Pool) handleResult(w *poolWorker, br *batchRun, r *resultFrame) {
	if r == nil || !removeOutstanding(w, r.Index) {
		return
	}
	br.doneCount++
	jr := JobResult{Name: r.Name}
	if r.Err != "" {
		jr.Err = fmt.Errorf("%s", r.Err)
	}
	if r.Summary != nil {
		opts := br.jobs[r.Index].Opts
		s, err := r.Summary.unpack(opts.MaxHops, opts.MaxPaths)
		if err != nil {
			jr.Err = fmt.Errorf("dist: worker %d sent a malformed result for job %q: %w", w.id, br.jobs[r.Index].Name, err)
		}
		jr.Summary = s
	}
	br.out[r.Index] = jr
}

// handleDown processes a worker's terminal reader event mid-batch: reap it,
// redial it (once per batch), and re-dispatch or fail the jobs it held.
func (p *Pool) handleDown(w *poolWorker, br *batchRun, readErr error) {
	if !w.alive {
		return
	}
	why := fmt.Sprintf("worker %d %s", w.id, p.reap(w, readErr, false))
	if !w.redialed {
		w.redialed = true
		if err := p.revive(w); err == nil {
			p.reg.Counter("dist.worker.reconnects").Inc()
			if err := p.sendBatch(w, br); err == nil {
				redo := w.outstanding
				w.outstanding = nil
				for _, idx := range redo {
					br.lostTo[idx] = why
				}
				p.dispatch(w, br, redo)
				return
			}
		}
	}
	outs := w.outstanding
	w.outstanding = nil
	for _, idx := range outs {
		br.lostTo[idx] = why
		p.lose(br, idx)
	}
}

// lose handles a job whose holder is gone (br.lostTo says to which death):
// re-dispatch it to the least-loaded survivor while its budget lasts, fail it
// otherwise.
func (p *Pool) lose(br *batchRun, idx int) {
	br.crashes[idx]++
	tgt := p.leastLoaded()
	if br.crashes[idx] > jobRetries || tgt == nil {
		br.fail(idx)
		return
	}
	p.reg.Counter("dist.jobs.redispatched").Inc()
	p.dispatch(tgt, br, []int{idx})
}

// fail resolves a job as lost to the worker death br.lostTo names.
func (br *batchRun) fail(idx int) {
	name := br.jobs[idx].Name
	br.out[idx] = JobResult{Name: name, Err: fmt.Errorf("dist: %s (job %q lost)", br.lostTo[idx], name)}
	br.doneCount++
}

// reap marks a worker down, closes its connection and emits the lifetime
// telemetry. It returns the crash-detail string used in lost-job errors.
// expected distinguishes a post-bye hang-up from a crash.
func (p *Pool) reap(w *poolWorker, readErr error, expected bool) string {
	w.alive = false
	w.readerDone = true
	if w.nc != nil {
		w.nc.Close()
		w.nc = nil
	}
	if expected {
		p.reg.Counter("dist.worker.exited").Inc()
	} else {
		p.reg.Counter("dist.worker.crashed").Inc()
	}
	if p.o.Enabled() {
		dur := time.Since(w.t0)
		status := "exited"
		if !expected {
			status = fmt.Sprintf("crashed: %v", readErr)
		}
		if p.o.Trc != nil {
			p.o.Trc.Emit(obs.Span{
				Phase: "worker", Name: status, Worker: -1, Shard: w.id,
				Start: w.t0.UnixNano(), Dur: dur.Nanoseconds(),
			})
		}
		p.reg.Histogram("phase.worker_ns").Observe(dur.Nanoseconds())
	}
	return fmt.Sprintf("connection lost: %v", readErr)
}

// removeOutstanding drops one job index from a worker's dispatch-ordered
// outstanding list, reporting whether the worker held it.
func removeOutstanding(w *poolWorker, idx int) bool {
	i := slices.Index(w.outstanding, idx)
	if i < 0 {
		return false
	}
	w.outstanding = slices.Delete(w.outstanding, i, i+1)
	return true
}

func (p *Pool) leastLoaded() *poolWorker {
	var best *poolWorker
	for _, w := range p.workers {
		if !w.alive {
			continue
		}
		if best == nil || len(w.outstanding) < len(best.outstanding) {
			best = w
		}
	}
	return best
}

func (p *Pool) liveCount() int {
	n := 0
	for _, w := range p.workers {
		if w.alive {
			n++
		}
	}
	return n
}

func (p *Pool) liveWorkers() []*poolWorker {
	out := make([]*poolWorker, 0, len(p.workers))
	for _, w := range p.workers {
		if w.alive {
			out = append(out, w)
		}
	}
	return out
}

// drainPending consumes events that arrived between batches (a worker dying
// while the pool was idle) without blocking.
func (p *Pool) drainPending() {
	for {
		select {
		case ev := <-p.events:
			if ev.err != nil && ev.w.alive {
				p.reap(ev.w, ev.err, false)
			}
		default:
			return
		}
	}
}

func (p *Pool) startReader(w *poolWorker) {
	c := w.conn
	go func() {
		for {
			f, err := c.recv()
			if err != nil {
				p.events <- wEvent{w: w, err: err}
				return
			}
			p.events <- wEvent{w: w, f: f}
		}
	}()
}

// connect dials one fleet member's address and completes the handshake,
// (re)initializing the worker handle in place. The first-ever dial retries
// inside a window (the fleet may still be binding); every later attempt gets
// one shot, so a member that stays down costs each batch one refused connect
// rather than a full retry window.
func (p *Pool) connect(w *poolWorker) error {
	window := time.Duration(0)
	if !w.dialed {
		window = dialRetryWindow
	}
	w.dialed = true
	nc, err := dialWorker(w.addr, window)
	if err != nil {
		return err
	}
	w.nc = nc
	w.conn = newConn(nc, nc)
	w.conn.instrument(p.reg)
	w.t0 = time.Now()
	nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	if err := p.handshake(w); err != nil {
		nc.Close()
		w.nc = nil
		return err
	}
	nc.SetReadDeadline(time.Time{})
	return nil
}

// handshake runs hello/helloAck on a fresh connection, which holds no setup
// yet.
func (p *Pool) handshake(w *poolWorker) error {
	w.gen = 0
	if err := w.conn.send(&frame{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion}}); err != nil {
		return fmt.Errorf("dist: worker %d hello: %w", w.id, err)
	}
	f, err := w.conn.recv()
	if err != nil {
		return fmt.Errorf("dist: worker %d handshake: %w", w.id, err)
	}
	if f.Kind != frameHelloAck || f.HelloAck == nil {
		return fmt.Errorf("dist: worker %d handshake: unexpected frame %d, want hello ack", w.id, f.Kind)
	}
	if f.HelloAck.Proto != protoVersion {
		return fmt.Errorf("dist: worker %d speaks protocol version %d, want %d", w.id, f.HelloAck.Proto, protoVersion)
	}
	return nil
}

// revive redials a dead member and restarts its reader.
func (p *Pool) revive(w *poolWorker) error {
	if err := p.connect(w); err != nil {
		return err
	}
	w.alive = true
	w.readerDone = false
	p.startReader(w)
	return nil
}

// closeTransport forces the worker's reader to its terminal event (used when
// a send fails: the connection is broken, but only the reader's error drives
// the crash path, keeping failure handling single-track).
func (w *poolWorker) closeTransport() {
	if w.nc != nil {
		w.nc.Close()
	}
}

// Close dismisses the fleet: live workers get a bye (each drops the session
// and goes on serving others) and the readers drain. Safe to call twice.
func (p *Pool) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	for _, w := range p.workers {
		if !w.alive {
			continue
		}
		if err := w.conn.send(&frame{Kind: frameBye}); err != nil {
			w.closeTransport()
		}
	}
	for {
		pending := false
		for _, w := range p.workers {
			if !w.readerDone {
				pending = true
			}
		}
		if !pending {
			break
		}
		ev := <-p.events
		if ev.err != nil && ev.w.alive {
			p.reap(ev.w, ev.err, true)
		}
	}
	return nil
}
