package sched

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/sefl"
)

// render reduces a result to comparable text: every path's identity, status,
// message and port history, then the run statistics.
func render(jr JobResult) string {
	if jr.Err != nil {
		return jr.Name + " error: " + jr.Err.Error()
	}
	var b strings.Builder
	b.WriteString(jr.Name)
	for _, p := range jr.Result.Paths {
		fmt.Fprintf(&b, "\n#%d %s %q %v", p.ID, p.Status, p.FailMsg, p.History())
	}
	fmt.Fprintf(&b, "\n%+v", jr.Result.Stats)
	return b.String()
}

// collector is a done callback that records every delivery.
type collector struct {
	mu  sync.Mutex
	got map[int][]JobResult
}

func (c *collector) done(id int, jr JobResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.got == nil {
		c.got = make(map[int][]JobResult)
	}
	c.got[id] = append(c.got[id], jr)
}

func departmentJobs() (*core.Network, []Job) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 12, Routes: 20, Seed: 5})
	srcs, _ := d.AllPairs()
	jobs := make([]Job, len(srcs))
	for i, s := range srcs {
		jobs[i] = Job{Name: s.String(), Inject: s, Packet: sefl.NewTCPPacket(), Opts: core.Options{MaxHops: 64}}
	}
	return d.Net, jobs
}

// TestQueueMatchesRunBatch streams a batch into a running queue — the second
// half added after the first has started delivering — and requires every job
// delivered exactly once, under the id it was added with, with the result
// RunBatch gives for the same jobs. Close returns only when all are in.
func TestQueueMatchesRunBatch(t *testing.T) {
	net, jobs := departmentJobs()
	want := RunBatch(net, jobs, 1)
	for _, workers := range []int{1, 3} {
		var c collector
		q := NewQueue(net, workers, nil, c.done)
		half := len(jobs) / 2
		for i, j := range jobs[:half] {
			q.Add(i, j)
		}
		// The queue is mid-batch — something delivered, workers live — when
		// the rest arrives.
		for delivered := 0; delivered == 0; time.Sleep(time.Millisecond) {
			c.mu.Lock()
			delivered = len(c.got)
			c.mu.Unlock()
		}
		for i, j := range jobs[half:] {
			q.Add(half+i, j)
		}
		q.Close()
		if len(c.got) != len(jobs) {
			t.Fatalf("workers=%d: %d jobs delivered, want %d", workers, len(c.got), len(jobs))
		}
		for i := range jobs {
			if len(c.got[i]) != 1 {
				t.Fatalf("workers=%d: job %d delivered %d times", workers, i, len(c.got[i]))
			}
			if got, want := render(c.got[i][0]), render(want[i]); got != want {
				t.Errorf("workers=%d: job %d differs from RunBatch:\n got %s\nwant %s", workers, i, got, want)
			}
		}
	}
}

// TestQueuePanicIsThatJobsError: a job whose exploration panics is delivered
// as that job's error, and the jobs queued behind it on the same worker run.
func TestQueuePanicIsThatJobsError(t *testing.T) {
	net := panicNet(t)
	inject := core.PortRef{Elem: "dut", Port: 0}
	var c collector
	q := NewQueue(net, 1, nil, c.done)
	q.Add(0, Job{Name: "ok-0", Inject: inject, Packet: sefl.NewTCPPacket()})
	q.Add(1, Job{Name: "boom", Inject: inject, Packet: poisonedPacket()})
	q.Add(2, Job{Name: "ok-1", Inject: inject, Packet: sefl.NewTCPPacket()})
	q.Close()
	if jr := c.got[1][0]; jr.Result != nil || jr.Err == nil || !strings.Contains(jr.Err.Error(), `job "boom" panicked: model bug`) {
		t.Errorf("poisoned job: %+v", jr)
	}
	for _, id := range []int{0, 2} {
		if jr := c.got[id][0]; jr.Err != nil || jr.Result.Stats.Delivered != 1 {
			t.Errorf("sibling %d: %+v", id, jr)
		}
	}
}

// TestQueueAbort: Abort discards the jobs that have not started and returns
// only after the one that has. The first job blocks inside a For body until
// released, so the ordering is the test's, not the scheduler's.
func TestQueueAbort(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	net := core.NewNetwork()
	e := net.AddElement("dut", "test", 1, 0)
	e.SetInCode(0, sefl.For{Pattern: "^GATE", Body: func(sefl.Meta) sefl.Instr {
		close(started)
		<-release
		return sefl.NoOp{}
	}})
	inject := core.PortRef{Elem: "dut", Port: 0}
	gated := sefl.Seq(sefl.NewTCPPacket(), sefl.Allocate{LV: sefl.Meta{Name: "GATE"}, Size: 8})

	var c collector
	q := NewQueue(net, 1, nil, c.done)
	q.Add(0, Job{Name: "running", Inject: inject, Packet: gated})
	q.Add(1, Job{Name: "pending-1", Inject: inject, Packet: sefl.NewTCPPacket()})
	q.Add(2, Job{Name: "pending-2", Inject: inject, Packet: sefl.NewTCPPacket()})
	<-started

	aborted := make(chan struct{})
	go func() {
		q.Abort()
		close(aborted)
	}()
	// Wait until Abort has closed the queue (the pending jobs are gone by
	// then); it cannot have returned, job 0 is stuck.
	for closed := false; !closed; time.Sleep(time.Millisecond) {
		q.mu.Lock()
		closed = q.closed
		q.mu.Unlock()
	}
	select {
	case <-aborted:
		t.Fatal("Abort returned while a job was still running")
	default:
	}
	close(release)
	<-aborted
	if len(c.got) != 1 || len(c.got[0]) != 1 || c.got[0][0].Err != nil {
		t.Fatalf("delivered %+v, want exactly the running job", c.got)
	}
}
