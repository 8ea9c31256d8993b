package sched

import (
	"fmt"
	"runtime"
	"sync"

	"symnet/internal/core"
	"symnet/internal/obs"
	"symnet/internal/solver"
)

// Queue is a streaming batch runner: jobs arrive through Add while a fixed
// set of workers drains them in arrival order. RunBatch puts a whole batch
// through one, and a fleet member adds its shard as the jobs frames arrive
// (one per batch, plus one per job re-dispatched to it after another member
// died) and reports each result as it finishes.
//
// Execution semantics per job are runJob's: a nil Opts.SatMemo shares the
// queue's memo and panics become per-job errors. Scheduling never affects results — each job is
// deterministic in isolation, so any arrival order produces the same
// JobResult for every job that runs here.
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
// GOMAXPROCS) with a satisfiability memo of its own for jobs that bring
// none. done is invoked once per executed job, from the finishing worker's
// goroutine — it must be safe for concurrent invocation. o attaches the
// same telemetry as RunBatchObs (per-worker task histograms, one "job" span
// per job, the memo's counters) and is optional.
func NewQueue(net *core.Network, workers int, o *obs.Obs, done func(id int, jr JobResult)) *Queue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	memo := solver.NewSatCache()
	if o != nil {
		memo.RegisterMetrics(o.Reg)
	}
	return newQueue(net, workers, memo, o, done)
}

// newQueue starts workers (> 0) goroutines draining a queue whose jobs
// without a SatMemo share memo (nil: a fresh one per run).
func newQueue(net *core.Network, workers int, memo *solver.SatCache, o *obs.Obs, done func(id int, jr JobResult)) *Queue {
	q := &Queue{net: net, memo: memo, o: o, done: done}
	q.cond = sync.NewCond(&q.mu)
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go q.run(w)
	}
	return q
}

// Add enqueues one job. Panics after Close or Abort (the queue's workers may
// already have exited; a silently dropped job would deadlock the
// coordinator).
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

// Close ends the queue the normal way: no job may be added afterwards, the
// workers run everything still pending, and Close returns once every job has
// been delivered through done.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
	q.wg.Wait()
}

// Abort ends the queue early: jobs that have not started are discarded (done
// is never invoked for them — nobody is left to read their results), and
// Abort returns once the jobs already running, which cannot be interrupted,
// have been delivered.
func (q *Queue) Abort() {
	q.mu.Lock()
	q.pending = nil
	q.mu.Unlock()
	q.Close()
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

		t := taskNs.Start()
		jr := runJob(q.net, qj.job, q.memo, q.o, w)
		t.Stop()
		q.done(qj.id, jr)
	}
}
