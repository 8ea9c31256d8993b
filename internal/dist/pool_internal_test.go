package dist

// Pool lifecycle tests that reach into coordinator internals: setup-mode
// accounting across batches (full once, then reuse), delta shipping after
// Refresh, full re-ship after Invalidate, and the reconnect path — a TCP
// connection dropped under the pool redials, the worker reports its parked
// generation, and the next batch reuses instead of re-encoding.

import (
	"encoding/json"
	"net"
	"testing"
	"time"

	"symnet/internal/core"
	"symnet/internal/obs"
	"symnet/internal/sefl"
)

// resultsJSON canonicalizes pool results for comparison.
func resultsJSON(t *testing.T, out []JobResult) string {
	t.Helper()
	type row struct {
		Name    string
		Err     string
		Summary *Summary
	}
	rows := make([]row, len(out))
	for i, r := range out {
		rows[i] = row{Name: r.Name, Summary: r.Summary}
		if r.Err != nil {
			rows[i].Err = r.Err.Error()
		}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// inProcessJSON is the engine-of-record reference for the same jobs.
func inProcessJSON(t *testing.T, network *core.Network, jobs []Job) string {
	t.Helper()
	out := InProcess(1, nil).RunBatch(network, jobs)
	for i := range out {
		out[i].Summary, out[i].Result = Summarize(out[i].Result), nil
	}
	return resultsJSON(t, out)
}

func TestPoolSetupModesAndReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	network, jobs := testFleetNet()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ServeListener(ln)

	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	p, err := NewPool(Config{Workers: []string{ln.Addr().String()}, WorkersPerProc: 1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	count := func(name string) int64 { return reg.Counter(name).Value() }
	want := inProcessJSON(t, network, jobs)

	if got := resultsJSON(t, p.RunBatch(network, jobs)); got != want {
		t.Fatalf("batch 1 differs from in-process reference:\n got %s\nwant %s", got, want)
	}
	if count("dist.setup.full") != 1 {
		t.Fatalf("batch 1: dist.setup.full = %d, want 1", count("dist.setup.full"))
	}
	if got := resultsJSON(t, p.RunBatch(network, jobs)); got != want {
		t.Fatalf("batch 2 differs from in-process reference")
	}
	if count("dist.setup.reuse") != 1 {
		t.Fatalf("batch 2: dist.setup.reuse = %d, want 1 (resident worker must not be re-shipped)", count("dist.setup.reuse"))
	}

	// Drop the connection out from under the pool; the worker parks its
	// installed state, the pool redials on the next batch and the handshake
	// recovers the generation — still no re-encode.
	p.workers[0].nc.Close()
	time.Sleep(300 * time.Millisecond)
	if got := resultsJSON(t, p.RunBatch(network, jobs)); got != want {
		t.Fatalf("post-reconnect batch differs from in-process reference")
	}
	if count("dist.worker.reconnects") != 1 {
		t.Fatalf("dist.worker.reconnects = %d, want 1", count("dist.worker.reconnects"))
	}
	if count("dist.setup.reuse") != 2 {
		t.Fatalf("post-reconnect: dist.setup.reuse = %d, want 2 (parked state must survive the drop)", count("dist.setup.reuse"))
	}

	// Mutate one port and Refresh: the next batch ships a delta, and the
	// results match a fresh in-process run of the mutated network.
	sw, ok := network.Element("SW")
	if !ok {
		t.Fatal("no SW element")
	}
	sw.SetOutCode(0, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(0xcc, 48))})
	p.Refresh(core.PortRef{Elem: "SW", Port: 0, Out: true})
	mutated := inProcessJSON(t, network, jobs)
	if mutated == want {
		t.Fatal("test mutation did not change results; the delta path would be unobservable")
	}
	if got := resultsJSON(t, p.RunBatch(network, jobs)); got != mutated {
		t.Fatalf("post-Refresh batch differs from in-process reference on the mutated network:\n got %s\nwant %s", got, mutated)
	}
	if count("dist.setup.delta") != 1 {
		t.Fatalf("post-Refresh: dist.setup.delta = %d, want 1", count("dist.setup.delta"))
	}

	// Invalidate forces the full blob again.
	p.Invalidate()
	if got := resultsJSON(t, p.RunBatch(network, jobs)); got != mutated {
		t.Fatalf("post-Invalidate batch differs from in-process reference")
	}
	if count("dist.setup.full") != 2 {
		t.Fatalf("post-Invalidate: dist.setup.full = %d, want 2", count("dist.setup.full"))
	}
	if count("dist.pool.batches") != 5 {
		t.Fatalf("dist.pool.batches = %d, want 5", count("dist.pool.batches"))
	}
}

// TestRefsSince pins the generation-log algebra the delta decisions rest on.
func TestRefsSince(t *testing.T) {
	p := &Pool{gen: 1}
	r1 := core.PortRef{Elem: "a", Port: 0, Out: true}
	r2 := core.PortRef{Elem: "b", Port: 1, Out: true}

	if refs, ok := p.refsSince(1); !ok || len(refs) != 0 {
		t.Fatalf("same gen: refs=%v ok=%v, want empty/true", refs, ok)
	}
	p.Refresh(r1)
	p.Refresh(r2, r1)
	if refs, ok := p.refsSince(1); !ok || len(refs) != 2 {
		t.Fatalf("after two refreshes: refs=%v ok=%v, want [a b]/true", refs, ok)
	}
	if refs, ok := p.refsSince(2); !ok || len(refs) != 2 || refs[0] != r2 {
		t.Fatalf("from gen 2: refs=%v ok=%v", refs, ok)
	}
	p.Invalidate()
	if _, ok := p.refsSince(1); ok {
		t.Fatal("delta across an Invalidate must be refused")
	}
	if refs, ok := p.refsSince(p.gen); !ok || len(refs) != 0 {
		t.Fatalf("current gen after invalidate: refs=%v ok=%v", refs, ok)
	}
	// A worker behind a trimmed log gets a full setup.
	for i := 0; i < genLogCap+5; i++ {
		p.Refresh(r1)
	}
	if _, ok := p.refsSince(2); ok {
		t.Fatal("delta beyond the trimmed log must be refused")
	}
}

// scriptedMember is a fleet member played by the test: it accepts one TCP
// session, answers the handshake, and hands every later frame to serve.
// serve returning ends the member — connection and listener close, so the
// pool's redial finds nobody.
func scriptedMember(t *testing.T, serve func(c *conn, f *frame) (alive bool)) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer ln.Close()
		defer nc.Close()
		c := newConn(nc, nc)
		if _, err := c.recv(); err != nil {
			return
		}
		c.send(&frame{Kind: frameHelloAck, HelloAck: &helloAckFrame{Proto: protoVersion}})
		for {
			f, err := c.recv()
			if err != nil || !serve(c, f) {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestResultFromNonHolderDropped pins single ownership: a member can resolve
// only the jobs it holds. Member A answers one of its own two jobs, forges a
// result for B's first job under a wrong name, and dies holding its other job.
// That job's re-dispatch reaches B strictly after the coordinator has read the
// forgery (same connection, earlier frame), and only then does B report — so
// the forgery is always first, and the batch's entry must still be B's.
func TestResultFromNonHolderDropped(t *testing.T) {
	network, two := testFleetNet()
	jobs := make([]Job, 4) // shards: A [0 1], B [2 3]
	for i := range jobs {
		jobs[i] = two[i%2]
		jobs[i].Name = string(rune('a' + i))
	}
	report := func(c *conn, idx int, name string) {
		c.send(&frame{Kind: frameResult, Result: &resultFrame{Index: idx, Name: name}})
	}
	a := scriptedMember(t, func(c *conn, f *frame) bool {
		if f.Kind != frameJobs {
			return true
		}
		report(c, 2, "forged")
		report(c, 0, jobs[0].Name)
		return false
	})
	var held []wireJob
	b := scriptedMember(t, func(c *conn, f *frame) bool {
		switch f.Kind {
		case frameJobs:
			first := held == nil
			held = append(held, f.Jobs.Jobs...)
			if !first {
				for _, wj := range held {
					report(c, wj.Index, wj.Name)
				}
			}
		case frameEnd:
			c.send(&frame{Kind: frameDone, Done: &doneFrame{}})
		case frameBye:
			return false
		}
		return true
	})

	reg := obs.NewRegistry()
	p, err := NewPool(Config{Workers: []string{a, b}, WorkersPerProc: 1, Obs: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i, r := range p.RunBatch(network, jobs) {
		if r.Err != nil || r.Name != jobs[i].Name {
			t.Errorf("job %d: %+v, want %q resolved by its holder", i, r, jobs[i].Name)
		}
	}
	if n := reg.Counter("dist.jobs.redispatched").Value(); n != 1 {
		t.Errorf("dist.jobs.redispatched = %d, want 1 (the job A died holding)", n)
	}
}

// TestMalformedResultFailsItsJob pins the coordinator's answer to a summary
// that does not unpack: that job fails with an error naming the member, the
// job and the fault, and the batch goes on — the member's next result is
// accepted as usual.
func TestMalformedResultFailsItsJob(t *testing.T) {
	network, jobs := testFleetNet()
	bad := packSummary(mustRun(t, network, jobs[0].Inject, jobs[0].Packet, jobs[0].Opts))
	bad.Hops[0].Parent = 0
	good := packSummary(mustRun(t, network, jobs[1].Inject, jobs[1].Packet, jobs[1].Opts))
	member := scriptedMember(t, func(c *conn, f *frame) bool {
		switch f.Kind {
		case frameJobs:
			c.send(&frame{Kind: frameResult, Result: &resultFrame{Index: 0, Name: jobs[0].Name, Summary: bad}})
			c.send(&frame{Kind: frameResult, Result: &resultFrame{Index: 1, Name: jobs[1].Name, Summary: good}})
		case frameEnd:
			c.send(&frame{Kind: frameDone, Done: &doneFrame{}})
		case frameBye:
			return false
		}
		return true
	})
	p, err := NewPool(Config{Workers: []string{member}, WorkersPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	out := p.RunBatch(network, jobs)
	want := `dist: worker 0 sent a malformed result for job "q0": hop 0: parent 0 is not an earlier hop`
	if out[0].Err == nil || out[0].Err.Error() != want || out[0].Summary != nil {
		t.Errorf("malformed result: %+v, want error %q", out[0], want)
	}
	if got, want := resultsJSON(t, out[1:]), inProcessJSON(t, network, jobs[1:]); got != want {
		t.Errorf("the member's next result differs from the in-process run:\n got %s\nwant %s", got, want)
	}
}

// TestOverBudgetResultFailsItsJob pins that the pool holds a result to the
// job it answers: a member that follows a looping packet for more hops than
// the job's MaxHops allows has that job failed with the budget error.
func TestOverBudgetResultFailsItsJob(t *testing.T) {
	network, inject := loopNet()
	jobs := []Job{{Name: "loop", Inject: inject, Packet: sefl.NewTCPPacket(), Opts: core.Options{MaxHops: 2}}}
	deeper := packSummary(mustRun(t, network, inject, sefl.NewTCPPacket(), core.Options{MaxHops: 3}))
	member := scriptedMember(t, func(c *conn, f *frame) bool {
		switch f.Kind {
		case frameJobs:
			c.send(&frame{Kind: frameResult, Result: &resultFrame{Index: 0, Name: jobs[0].Name, Summary: deeper}})
		case frameEnd:
			c.send(&frame{Kind: frameDone, Done: &doneFrame{}})
		case frameBye:
			return false
		}
		return true
	})
	p, err := NewPool(Config{Workers: []string{member}, WorkersPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	out := p.RunBatch(network, jobs)
	want := `dist: worker 0 sent a malformed result for job "loop": path 0: history of 7 port visits exceeds the job's budget of 5`
	if out[0].Err == nil || out[0].Err.Error() != want || out[0].Summary != nil {
		t.Errorf("over-budget result: %+v, want error %q", out[0], want)
	}
}
