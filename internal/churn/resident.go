package churn

import (
	"context"
	"fmt"
	"sync"

	"symnet/internal/obs"
)

// ResidentConfig bounds the concurrent serving wrapper.
type ResidentConfig struct {
	// QueueDepth bounds the intake queue (pending submissions); a full
	// queue back-pressures Submit. Default 256.
	QueueDepth int
	// MaxBatch caps how many deltas one absorption pass coalesces.
	// Default 128.
	MaxBatch int
}

// DeltaStatus is the per-delta outcome of a Submit: either applied as part
// of the submission's batch or rejected with the staging error (the rest of
// the submission still applies).
type DeltaStatus struct {
	Delta   Delta  `json:"delta"`
	Applied bool   `json:"applied"`
	Err     string `json:"error,omitempty"`
}

// SubmitResult reports one submission's absorption.
type SubmitResult struct {
	// Batch is the absorption pass this submission rode in; it may cover
	// deltas from other submissions coalesced into the same pass. Nil when
	// every delta in the submission was rejected at staging.
	Batch *BatchResult
	// Statuses aligns with the submitted deltas.
	Statuses []DeltaStatus
	// Applied counts the submission's deltas that were absorbed.
	Applied int
}

type submitKind int

const (
	kindDeltas submitKind = iota
	kindRestore
	kindExport
	kindBarrier
)

type submission struct {
	kind  submitKind
	ds    []Delta
	state *State
	reply chan submitReply
}

type submitReply struct {
	res   *SubmitResult
	state *State
	pub   *PublishedReport
	err   error
}

// Resident wraps a Service for concurrent serving: all mutations funnel
// through a bounded intake queue drained by a single absorber goroutine,
// which coalesces everything queued into one stage/commit pass — N deltas to
// the same table collapse into one new guard per changed port and one
// re-verification. Reads (Current, Watch, TransitionsSince) go straight to
// the service's lock-free published snapshots.
type Resident struct {
	svc    *Service
	cfg    ResidentConfig
	intake chan *submission
	done   chan struct{}
	wg     sync.WaitGroup

	closeOnce sync.Once

	queueDepth *obs.Gauge
	queueMax   *obs.Gauge
	submitted  *obs.Counter
	coalesced  *obs.Counter
}

// NewResident wraps an initialized service. Call Start to begin absorbing.
func NewResident(svc *Service, cfg ResidentConfig) *Resident {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 128
	}
	reg := svc.reg
	return &Resident{
		svc:        svc,
		cfg:        cfg,
		intake:     make(chan *submission, cfg.QueueDepth),
		done:       make(chan struct{}),
		queueDepth: reg.Gauge("churn.queue.depth"),
		queueMax:   reg.Gauge("churn.queue.max_depth"),
		submitted:  reg.Counter("churn.queue.submitted"),
		coalesced:  reg.Counter("churn.queue.coalesced"),
	}
}

// Current returns the latest published report version, lock-free.
func (r *Resident) Current() *PublishedReport { return r.svc.current() }

// Watch subscribes to published versions (see Service.watch).
func (r *Resident) Watch(buffer int) *Subscription { return r.svc.watch(buffer) }

// TransitionsSince replays retained events (see Service.transitionsSince).
func (r *Resident) TransitionsSince(since uint64) ([]VersionEvent, bool) {
	return r.svc.transitionsSince(since)
}

// Start launches the absorber goroutine. The service must be Init'ed.
func (r *Resident) Start() error {
	if r.svc.current() == nil {
		return fmt.Errorf("churn: Resident.Start before Service.Init")
	}
	r.wg.Add(1)
	go r.absorber()
	return nil
}

// Close stops the absorber after the current pass; queued submissions are
// failed. Watch subscriptions are closed.
func (r *Resident) Close() {
	r.closeOnce.Do(func() { close(r.done) })
	r.wg.Wait()
	// Drain anything that raced into the queue around shutdown (or
	// everything, if Start was never called).
	r.failPending()
	r.svc.hub.close()
}

// Submit enqueues deltas for absorption and blocks until their pass commits
// (or ctx is done / the resident closes). Deltas are staged in order;
// an inapplicable delta is rejected in its Statuses entry and the rest of
// the submission still applies. Concurrently queued submissions coalesce
// into the same pass, so the returned Batch may cover more deltas than this
// submission's.
func (r *Resident) Submit(ctx context.Context, ds []Delta) (*SubmitResult, error) {
	rep, err := r.roundTrip(ctx, &submission{kind: kindDeltas, ds: ds})
	if err != nil {
		return nil, err
	}
	return rep.res, nil
}

// Restore replaces the resident tables with the snapshot state and re-runs
// the full verification, publishing the restored report as the next version
// (versions stay monotone even when the snapshot is older). It waits its
// turn behind queued deltas.
func (r *Resident) Restore(ctx context.Context, st *State) (*PublishedReport, error) {
	rep, err := r.roundTrip(ctx, &submission{kind: kindRestore, state: st})
	if err != nil {
		return nil, err
	}
	return rep.pub, nil
}

// Export captures a consistent snapshot of the resident state (tables plus
// version), serialized with absorption so it never sees a half-applied
// batch.
func (r *Resident) Export(ctx context.Context) (*State, error) {
	rep, err := r.roundTrip(ctx, &submission{kind: kindExport})
	if err != nil {
		return nil, err
	}
	return rep.state, nil
}

// Barrier waits until every submission queued before it has been absorbed.
func (r *Resident) Barrier(ctx context.Context) error {
	_, err := r.roundTrip(ctx, &submission{kind: kindBarrier})
	return err
}

func (r *Resident) roundTrip(ctx context.Context, sub *submission) (submitReply, error) {
	sub.reply = make(chan submitReply, 1)
	select {
	case r.intake <- sub:
		r.submitted.Inc()
		r.queueDepth.Set(int64(len(r.intake)))
		r.queueMax.SetMax(int64(len(r.intake)))
	case <-ctx.Done():
		return submitReply{}, ctx.Err()
	case <-r.done:
		return submitReply{}, fmt.Errorf("churn: resident closed")
	}
	select {
	case rep := <-sub.reply:
		return rep, rep.err
	case <-ctx.Done():
		// The absorber will still process the submission; the caller just
		// stops waiting (the reply channel is buffered, so nothing leaks).
		return submitReply{}, ctx.Err()
	case <-r.done:
		// Shutdown: prefer a reply that raced in, else report closed.
		select {
		case rep := <-sub.reply:
			return rep, rep.err
		default:
			return submitReply{}, fmt.Errorf("churn: resident closed")
		}
	}
}

// absorber is the single writer: it drains the intake queue, coalesces
// queued delta submissions into one staged batch, commits, and answers.
func (r *Resident) absorber() {
	defer r.wg.Done()
	for {
		select {
		case <-r.done:
			r.failPending()
			return
		case first := <-r.intake:
			batch := []*submission{first}
			deltas := len(first.ds)
			// Coalesce whatever else is already queued, up to MaxBatch
			// deltas; control submissions (restore/export/barrier) cut the
			// batch so they observe a fully committed state.
			if first.kind == kindDeltas {
			drain:
				for deltas < r.cfg.MaxBatch {
					select {
					case next := <-r.intake:
						batch = append(batch, next)
						if next.kind != kindDeltas {
							break drain
						}
						deltas += len(next.ds)
					default:
						break drain
					}
				}
			}
			r.queueDepth.Set(int64(len(r.intake)))
			r.absorb(batch)
		}
	}
}

// absorb stages every delta submission in the batch (skipping inapplicable
// deltas per submission), commits once, and replies to each submitter. A
// trailing control submission is handled after the commit.
func (r *Resident) absorb(batch []*submission) {
	var control *submission
	if last := batch[len(batch)-1]; last.kind != kindDeltas {
		control = last
		batch = batch[:len(batch)-1]
	}
	if len(batch) > 0 {
		st := r.svc.newStage()
		results := make([]*SubmitResult, len(batch))
		for i, sub := range batch {
			res := &SubmitResult{Statuses: make([]DeltaStatus, len(sub.ds))}
			for j, d := range sub.ds {
				ds := DeltaStatus{Delta: d}
				if err := st.Add(d); err != nil {
					ds.Err = err.Error()
				} else {
					ds.Applied = true
					res.Applied++
				}
				res.Statuses[j] = ds
			}
			results[i] = res
		}
		if len(batch) > 1 {
			r.coalesced.Add(int64(len(batch) - 1))
		}
		var br *BatchResult
		var err error
		if st.Deltas() > 0 {
			br, err = st.commit()
		}
		for i, sub := range batch {
			if err != nil {
				sub.reply <- submitReply{err: err}
				continue
			}
			results[i].Batch = br
			sub.reply <- submitReply{res: results[i]}
		}
	}
	if control != nil {
		r.handleControl(control)
	}
}

func (r *Resident) handleControl(sub *submission) {
	switch sub.kind {
	case kindRestore:
		pub, err := r.svc.restoreState(sub.state)
		sub.reply <- submitReply{pub: pub, err: err}
	case kindExport:
		sub.reply <- submitReply{state: r.svc.exportState()}
	case kindBarrier:
		sub.reply <- submitReply{}
	case kindDeltas:
		// Unreachable: deltas are never routed here.
		sub.reply <- submitReply{err: fmt.Errorf("churn: internal: delta submission as control")}
	}
}

// failPending rejects everything still queued at shutdown.
func (r *Resident) failPending() {
	for {
		select {
		case sub := <-r.intake:
			sub.reply <- submitReply{err: fmt.Errorf("churn: resident closed")}
		default:
			return
		}
	}
}
