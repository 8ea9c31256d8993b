package sched

import (
	"fmt"
	"runtime"
	"sync"

	"symnet/internal/core"
	"symnet/internal/obs"
	"symnet/internal/solver"
)

// Queue is a dynamic batch runner: jobs stream in through Add while a fixed
// worker pool drains them, and jobs that have not started yet can be revoked
// — handed back to the caller, who is then free to run them elsewhere. It is
// the worker-side engine of the distributed runner's dynamic dispatch: the
// coordinator tops a worker's queue up one job at a time and, when it steals
// a slow worker's tail for an idle one, revokes the stolen jobs here.
//
// Execution semantics per job are exactly RunBatchStream's: Opts.Workers is
// forced to 0 (parallelism is across jobs), a nil Opts.SatMemo shares the
// queue-wide cache, caller Stats collectors are not consulted, and panics
// become per-job errors. Scheduling never affects results — each job is
// deterministic in isolation, so any interleaving of Add/Revoke produces the
// same JobResult for every job that runs here.
type Queue struct {
	net  *core.Network
	memo *solver.SatCache
	o    *obs.Obs
	done func(id int, jr JobResult)

	mu      sync.Mutex
	cond    *sync.Cond
	pending []queuedJob // FIFO of not-yet-started jobs
	closed  bool
	wg      sync.WaitGroup
}

// queuedJob pairs a job with the caller's identifier for it (the distributed
// runner uses the job's index in the coordinator's batch).
type queuedJob struct {
	id  int
	job Job
}

// NewQueue starts a queue of the given width (workers <= 0 selects
// GOMAXPROCS). done is invoked once per executed job, from the finishing
// worker's goroutine — it must be safe for concurrent invocation. o
// attaches the same scheduler telemetry as RunBatchStream (per-worker task
// histograms, one "job" span per job, the queue's satisfiability memo
// counters) and is optional.
func NewQueue(net *core.Network, workers int, o *obs.Obs, done func(id int, jr JobResult)) *Queue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	memo := solver.NewSatCache()
	if o != nil {
		memo.RegisterMetrics(o.Reg)
	}
	q := &Queue{net: net, memo: memo, o: o, done: done}
	q.cond = sync.NewCond(&q.mu)
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go q.run(w)
	}
	return q
}

// Add enqueues one job. Panics after Close (the queue's workers may already
// have exited; a silently dropped job would deadlock the coordinator).
func (q *Queue) Add(id int, j Job) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("sched: Queue.Add after Close")
	}
	q.pending = append(q.pending, queuedJob{id: id, job: j})
	q.mu.Unlock()
	q.cond.Signal()
}

// Revoke removes the identified jobs from the pending queue, returning the
// ids actually removed. Ids that already started (or finished, or were never
// added) are not in the returned set — those jobs will still report through
// done, and the caller must reconcile duplicates itself.
func (q *Queue) Revoke(ids []int) []int {
	if len(ids) == 0 {
		return nil
	}
	want := make(map[int]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	var revoked []int
	kept := q.pending[:0]
	for _, qj := range q.pending {
		if want[qj.id] {
			revoked = append(revoked, qj.id)
			continue
		}
		kept = append(kept, qj)
	}
	q.pending = kept
	return revoked
}

// Close marks the queue complete: workers drain the remaining pending jobs
// and exit. Add must not be called afterwards; Revoke is still safe.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Wait blocks until Close has been called and every remaining job has been
// delivered through done.
func (q *Queue) Wait() {
	q.wg.Wait()
}

func (q *Queue) run(w int) {
	defer q.wg.Done()
	var taskNs *obs.Histogram
	if q.o != nil && q.o.Reg != nil {
		taskNs = q.o.Reg.Histogram(fmt.Sprintf("sched.w%d.task_ns", w))
	}
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pending) == 0 {
			q.mu.Unlock()
			return
		}
		qj := q.pending[0]
		q.pending = q.pending[1:]
		q.mu.Unlock()

		j := qj.job
		opts := j.Opts
		opts.Workers = 0
		if opts.SatMemo == nil {
			opts.SatMemo = q.memo
		}
		opts.Stats = nil
		if opts.Obs == nil {
			opts.Obs = q.o
		}
		t := taskNs.Start()
		fin := q.o.Span("job", j.Name, w)
		res, err := runJob(q.net, j, opts)
		fin()
		t.Stop()
		q.done(qj.id, JobResult{Name: j.Name, Result: res, Err: err})
	}
}
