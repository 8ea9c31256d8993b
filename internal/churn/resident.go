package churn

import (
	"context"
	"fmt"
	"sync"

	"symnet/internal/obs"
)

const (
	// queueDepth bounds the intake queue (pending submissions); a full
	// queue back-pressures Apply.
	queueDepth = 256
	// maxBatch caps how many deltas one absorption pass coalesces.
	maxBatch = 128
)

// DeltaStatus is the per-delta outcome of an Apply: either applied as part
// of the submission's batch or rejected with the staging error (the rest of
// the submission still applies).
type DeltaStatus struct {
	Delta   Delta  `json:"delta"`
	Applied bool   `json:"applied"`
	Err     string `json:"error,omitempty"`
}

// ApplyReport reports one Apply call's absorption.
type ApplyReport struct {
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
)

type submission struct {
	kind  submitKind
	ds    []Delta
	state *State
	reply chan submitReply
}

type submitReply struct {
	res   *ApplyReport
	state *State
	pub   *PublishedReport
	err   error
}

// Resident is a live churn-serving handle (symnet.Serving): a resident
// verification of the configured all-pairs query that absorbs rule deltas
// incrementally and publishes versioned report snapshots. All mutations
// funnel through a bounded intake queue (queueDepth submissions) drained by
// a single absorber goroutine, which coalesces everything queued, up to
// maxBatch deltas, into one stage/commit pass — N deltas to the same table
// collapse into one new guard per changed port and one re-verification.
// Reads (Current, Watch, TransitionsSince) go straight to the service's
// lock-free published snapshots. Every published report is byte-identical
// to a from-scratch verification of the same rules (pinned by the
// differential tests in this package).
type Resident struct {
	svc    *Service
	intake chan *submission
	done   chan struct{}
	wg     sync.WaitGroup

	closeOnce sync.Once

	queueDepth *obs.Gauge
	queueMax   *obs.Gauge
	submitted  *obs.Counter
	coalesced  *obs.Counter
}

// NewResident wraps an Init'ed service and starts its absorber. The
// resident owns the service's Runner from here on: Close closes it.
func NewResident(svc *Service) *Resident {
	r := newResident(svc)
	r.start()
	return r
}

// newResident wraps svc without starting the absorber, so submissions
// queue until start.
func newResident(svc *Service) *Resident {
	reg := svc.reg
	return &Resident{
		svc:        svc,
		intake:     make(chan *submission, queueDepth),
		done:       make(chan struct{}),
		queueDepth: reg.Gauge("churn.queue.depth"),
		queueMax:   reg.Gauge("churn.queue.max_depth"),
		submitted:  reg.Counter("churn.queue.submitted"),
		coalesced:  reg.Counter("churn.queue.coalesced"),
	}
}

// Current returns the latest published report snapshot, lock-free.
func (r *Resident) Current() *PublishedReport { return r.svc.current() }

// Watch subscribes to published versions. Events carry the reachability
// transitions vs the previous version; a subscriber that falls more than
// buffer events behind is dropped (its channel closes) and must re-sync via
// Current or TransitionsSince.
func (r *Resident) Watch(buffer int) *Subscription { return r.svc.watch(buffer) }

// TransitionsSince replays retained events with Version > since, oldest
// first. A false second return means since is beyond the replay ring and the
// caller must re-read Current instead.
func (r *Resident) TransitionsSince(since uint64) ([]VersionEvent, bool) {
	return r.svc.transitionsSince(since)
}

// start launches the absorber goroutine.
func (r *Resident) start() {
	r.wg.Add(1)
	go r.absorber()
}

// Close stops the absorber after the current pass, fails queued
// submissions, closes watch subscriptions and closes the service's Runner,
// dismissing a fleet's workers.
func (r *Resident) Close() {
	r.closeOnce.Do(func() { close(r.done) })
	r.wg.Wait()
	// Drain anything that raced into the queue around shutdown (or
	// everything, if the absorber never started).
	r.failPending()
	r.svc.hub.close()
	r.svc.cfg.Runner.Close()
}

// Apply enqueues deltas for absorption and blocks until their pass commits
// (or ctx is done / the resident closes). Deltas are staged in order; an
// inapplicable delta is rejected in its Statuses entry and the rest still
// applies. Concurrent Apply calls coalesce into the same pass, so the
// returned Batch may cover more deltas than this call's.
func (r *Resident) Apply(ctx context.Context, ds ...Delta) (*ApplyReport, error) {
	rep, err := r.roundTrip(ctx, &submission{kind: kindDeltas, ds: ds})
	if err != nil {
		return nil, err
	}
	return rep.res, nil
}

// Restore replaces the resident tables with the snapshot's, installs only
// the code that differs from theirs, and re-runs the full verification,
// publishing the restored report as the next version (versions stay
// monotone even when the snapshot is older). It waits its turn behind
// queued deltas.
func (r *Resident) Restore(ctx context.Context, st *State) (*PublishedReport, error) {
	rep, err := r.roundTrip(ctx, &submission{kind: kindRestore, state: st})
	if err != nil {
		return nil, err
	}
	return rep.pub, nil
}

// Export captures a consistent snapshot of the resident state (tables plus
// version), serialized with absorption so it never sees a half-applied
// batch: it returns once every Apply queued before it has been absorbed.
func (r *Resident) Export(ctx context.Context) (*State, error) {
	rep, err := r.roundTrip(ctx, &submission{kind: kindExport})
	if err != nil {
		return nil, err
	}
	return rep.state, nil
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
			// Coalesce whatever else is already queued, up to maxBatch
			// deltas; control submissions (restore/export) cut the batch
			// so they observe a fully committed state.
			if first.kind == kindDeltas {
			drain:
				for deltas < maxBatch {
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
		results := make([]*ApplyReport, len(batch))
		for i, sub := range batch {
			res := &ApplyReport{Statuses: make([]DeltaStatus, len(sub.ds))}
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
