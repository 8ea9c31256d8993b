package dist

import (
	"fmt"
	"net"
	"os"
	"slices"
	"time"

	"symnet/internal/core"
	"symnet/internal/obs"
)

// Pool is a persistent fleet of workers reused across batches: resident
// `symworker -listen` processes reached over TCP (Config.Workers), each
// holding the installed network between RunBatch calls, so repeated batches
// — the churn re-verification loop above all — pay the setup encode once and
// then ship only deltas (Refresh) or nothing (unchanged network).
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
// a reconnecting pool ships a setup delta instead of the full re-encode. None
// of this affects results: each job is deterministic in isolation, so
// RunBatch output is byte-identical across every pool size and crash
// pattern — the property tests in this package pin that.
//
// A Pool is not safe for concurrent use; serialize RunBatch/Refresh/Close
// calls (Session.Serve does, via the churn service's single apply goroutine).
type Pool struct {
	cfg   Config
	o     *obs.Obs
	reg   *obs.Registry
	runID string
	seq   uint64

	// gen is the setup generation of the coordinator's network; genLog
	// records, per generation bump, which ports changed (or that everything
	// did), so a worker holding an older generation can be caught up with a
	// delta instead of a full setup.
	gen    uint64
	genLog []genDelta

	workers []*poolWorker
	events  chan wEvent
	closed  bool
}

// genLogCap bounds the delta log; a worker further behind than the log
// reaches simply gets a full setup (always correct, never wrong — the log is
// an optimization, not a ledger).
const genLogCap = 64

// genDelta records what changed to produce generation gen.
type genDelta struct {
	gen  uint64
	refs []core.PortRef
	full bool
}

// poolWorker is the coordinator's handle on one fleet member.
type poolWorker struct {
	id   int
	addr string

	nc   net.Conn
	conn *conn
	t0   time.Time

	// gen mirrors the setup generation the worker holds installed (0:
	// nothing); it decides full/delta/reuse setup per batch.
	gen uint64

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
	p := &Pool{
		cfg: cfg, o: cfg.Obs, gen: 1,
		runID: fmt.Sprintf("symnet-%d-%d", os.Getpid(), time.Now().UnixNano()),
	}
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

// Refresh records that the programs behind the given ports changed (the
// churn service calls it after reconciling a rule delta): the pool bumps its
// setup generation and the next batch ships workers just those ports'
// re-compiled IR. No refs is a no-op.
func (p *Pool) Refresh(refs ...core.PortRef) {
	if len(refs) == 0 {
		return
	}
	p.gen++
	p.genLog = append(p.genLog, genDelta{gen: p.gen, refs: append([]core.PortRef(nil), refs...)})
	if len(p.genLog) > genLogCap {
		p.genLog = p.genLog[len(p.genLog)-genLogCap:]
	}
}

// Invalidate records a change too broad to describe port-by-port (element
// rebuilt, state restored): the next batch re-ships the full setup to every
// worker.
func (p *Pool) Invalidate() {
	p.gen++
	p.genLog = append(p.genLog, genDelta{gen: p.gen, full: true})
	if len(p.genLog) > genLogCap {
		p.genLog = p.genLog[len(p.genLog)-genLogCap:]
	}
}

// refsSince returns the union of ports changed after generation g, in first-
// change order, or ok=false when a delta cannot be assembled (a full
// invalidation intervened, or the log no longer reaches back to g).
func (p *Pool) refsSince(g uint64) ([]core.PortRef, bool) {
	if g == p.gen {
		return nil, true
	}
	if g > p.gen {
		return nil, false
	}
	var out []core.PortRef
	seen := make(map[core.PortRef]bool)
	next := g + 1
	for _, e := range p.genLog {
		if e.gen <= g {
			continue
		}
		if e.gen != next || e.full {
			return nil, false
		}
		next++
		for _, r := range e.refs {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	if next != p.gen+1 {
		return nil, false
	}
	return out, true
}

// RunBatch runs every job across the fleet, returning results in job order —
// byte-identical (as summaries) to sched.RunBatch regardless of fleet size
// or crashes. A batch-wide setup failure poisons every job;
// per-worker failures poison only jobs that exhausted their retry budget. Per-job Options.Stats collectors and Options.SatMemo caches cannot
// cross the process boundary and are ignored; per-job solver statistics are
// in each Summary.Stats.Solver, deterministic either way.
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

	needAST bool

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
	for _, j := range jobs {
		if j.Opts.ASTInterp {
			br.needAST = true
		}
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
// mode: reuse (nothing changed since the generation the worker holds), delta
// (only the changed ports' programs and verdicts), or the full blob. Encode
// failures are batch-fatal; send failures surface through the worker's
// reader.
func (p *Pool) sendBatch(w *poolWorker, br *batchRun) error {
	bf := &batchFrame{
		Seq: p.seq, Gen: p.gen,
		Workers: p.cfg.WorkersPerProc, Shard: w.id,
		Metrics: br.metrics,
	}
	mode := "full"
	// ASTInterp jobs execute the port ASTs, which only the full setup
	// carries — deltas ship compiled programs only.
	if w.gen != 0 && !br.needAST {
		if refs, ok := p.refsSince(w.gen); ok {
			if len(refs) == 0 {
				mode = "reuse"
			} else {
				progs, err := core.EncodeProgramsFor(br.net, refs)
				if err != nil {
					return fmt.Errorf("dist: %w", err)
				}
				sums, err := core.EncodeSummariesFor(br.net, refs)
				if err != nil {
					return fmt.Errorf("dist: %w", err)
				}
				bf.Delta = &deltaFrame{Programs: progs, Summaries: sums}
				mode = "delta"
			}
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
	w.gen = p.gen
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
// within the job's own hop budget fails its job: every member is a remote
// process whose bytes the coordinator did not write.
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
		s, err := r.Summary.unpack(br.jobs[r.Index].Opts.MaxHops)
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

// handshake runs hello/helloAck on a fresh connection, seeding w.gen with
// whatever setup the worker still retains for this pool's run.
func (p *Pool) handshake(w *poolWorker) error {
	if err := w.conn.send(&frame{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, RunID: p.runID}}); err != nil {
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
	w.gen = f.HelloAck.Gen
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
