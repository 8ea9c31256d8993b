package dist

// Pool lifecycle tests that reach into coordinator internals: setup-mode
// accounting across batches (full once, then reuse), delta shipping after
// Refresh, and the reconnect path — a TCP connection dropped under the pool
// redials, and the new connection starts from the full setup.

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

	// Drop the connection out from under the pool; the pool redials on the
	// next batch, and the new connection holds nothing, so it gets the full
	// setup — with the same results.
	p.workers[0].nc.Close()
	time.Sleep(300 * time.Millisecond)
	if got := resultsJSON(t, p.RunBatch(network, jobs)); got != want {
		t.Fatalf("post-reconnect batch differs from in-process reference")
	}
	if count("dist.worker.reconnects") != 1 {
		t.Fatalf("dist.worker.reconnects = %d, want 1", count("dist.worker.reconnects"))
	}
	if count("dist.setup.full") != 2 || count("dist.setup.reuse") != 1 {
		t.Fatalf("post-reconnect: dist.setup.full = %d, reuse = %d, want 2 and 1 (a new connection starts from the full setup)",
			count("dist.setup.full"), count("dist.setup.reuse"))
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

	if count("dist.pool.batches") != 4 {
		t.Fatalf("dist.pool.batches = %d, want 4", count("dist.pool.batches"))
	}
}

// listenWorker starts an in-process fleet member on a loopback listener and
// returns its address.
func listenWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go ServeListener(ln)
	return ln.Addr().String()
}

// mutateSW rewrites SW's first egress guard to a MAC no job's results had
// before, returning the changed port.
func mutateSW(t *testing.T, network *core.Network, mac uint64) core.PortRef {
	t.Helper()
	sw, ok := network.Element("SW")
	if !ok {
		t.Fatal("no SW element")
	}
	sw.SetOutCode(0, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(mac, 48))})
	return core.PortRef{Elem: "SW", Port: 0, Out: true}
}

// TestDeltaSurvivesEmptyBatch: a batch with no jobs ships nothing, so the
// ports refreshed before it still reach the member as a delta with the next
// batch that runs.
func TestDeltaSurvivesEmptyBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	network, jobs := testFleetNet()
	reg := obs.NewRegistry()
	p, err := NewPool(Config{Workers: []string{listenWorker(t)}, WorkersPerProc: 1, Obs: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	count := func(name string) int64 { return reg.Counter(name).Value() }

	if got, want := resultsJSON(t, p.RunBatch(network, jobs)), inProcessJSON(t, network, jobs); got != want {
		t.Fatalf("batch 1 differs from in-process reference:\n got %s\nwant %s", got, want)
	}
	p.Refresh(mutateSW(t, network, 0xcc))
	if out := p.RunBatch(network, nil); len(out) != 0 {
		t.Fatalf("zero-job batch returned %d results", len(out))
	}
	if got, want := resultsJSON(t, p.RunBatch(network, jobs)), inProcessJSON(t, network, jobs); got != want {
		t.Fatalf("batch after the zero-job batch differs from in-process reference on the mutated network:\n got %s\nwant %s", got, want)
	}
	if full, delta, reuse := count("dist.setup.full"), count("dist.setup.delta"), count("dist.setup.reuse"); full != 1 || delta != 1 || reuse != 0 {
		t.Fatalf("setups full/delta/reuse = %d/%d/%d, want 1/1/0", full, delta, reuse)
	}
}

// TestPoolRunsTheNetworkItIsSent: a batch on another network than the last
// one ships that network's full setup, so the members run the network the
// batch names — not the one they installed for the batch before.
func TestPoolRunsTheNetworkItIsSent(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	netA, jobs := testFleetNet()
	netB, _ := testFleetNet()
	mutateSW(t, netB, 0xcc)
	wantA, wantB := inProcessJSON(t, netA, jobs), inProcessJSON(t, netB, jobs)
	if wantA == wantB {
		t.Fatal("the two networks give the same results; a stale network would be unobservable")
	}
	reg := obs.NewRegistry()
	p, err := NewPool(Config{Workers: []string{listenWorker(t)}, WorkersPerProc: 1, Obs: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i, step := range []struct {
		net  *core.Network
		want string
	}{{netA, wantA}, {netB, wantB}, {netB, wantB}, {netA, wantA}} {
		if got := resultsJSON(t, p.RunBatch(step.net, jobs)); got != step.want {
			t.Fatalf("batch %d differs from in-process reference on its own network:\n got %s\nwant %s", i+1, got, step.want)
		}
	}
	if full, reuse := reg.Counter("dist.setup.full").Value(), reg.Counter("dist.setup.reuse").Value(); full != 3 || reuse != 1 {
		t.Fatalf("setups full/reuse = %d/%d, want 3/1 (each change of network ships it in full)", full, reuse)
	}
}

// TestReconnectGetsFullOthersDelta: of two members, one loses its connection
// while the coordinator refreshes a port. On the next batch the redialed
// member gets the full setup, the one that stayed connected a delta, and the
// results are byte-identical to the in-process engine's on the mutated
// network.
func TestReconnectGetsFullOthersDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	network, two := testFleetNet()
	jobs := append(append([]Job(nil), two...), two...) // two per member
	for i := range jobs {
		jobs[i].Name = string(rune('a' + i))
	}
	reg := obs.NewRegistry()
	p, err := NewPool(Config{Workers: []string{listenWorker(t), listenWorker(t)}, WorkersPerProc: 1, Obs: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	count := func(name string) int64 { return reg.Counter(name).Value() }

	if got, want := resultsJSON(t, p.RunBatch(network, jobs)), inProcessJSON(t, network, jobs); got != want {
		t.Fatalf("batch 1 differs from in-process reference:\n got %s\nwant %s", got, want)
	}
	p.workers[1].nc.Close()
	time.Sleep(300 * time.Millisecond)
	p.Refresh(mutateSW(t, network, 0xcc))
	want := inProcessJSON(t, network, jobs)
	if got := resultsJSON(t, p.RunBatch(network, jobs)); got != want {
		t.Fatalf("post-reconnect batch differs from in-process reference on the mutated network:\n got %s\nwant %s", got, want)
	}
	if n := count("dist.worker.reconnects"); n != 1 {
		t.Fatalf("dist.worker.reconnects = %d, want 1", n)
	}
	if full, delta := count("dist.setup.full"), count("dist.setup.delta"); full != 3 || delta != 1 {
		t.Fatalf("setups full/delta = %d/%d, want 3/1 (two at start, one for the redialed member; a delta for the other)", full, delta)
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
// the job's MaxHops allows has that job failed with the budget error. Loop
// detection is off, so the hop budget is what stops the packet.
func TestOverBudgetResultFailsItsJob(t *testing.T) {
	network, inject := loopNet()
	jobs := []Job{{Name: "loop", Inject: inject, Packet: sefl.NewTCPPacket(), Opts: core.Options{MaxHops: 2, Loop: core.LoopOff}}}
	deeper := packSummary(mustRun(t, network, inject, sefl.NewTCPPacket(), core.Options{MaxHops: 3, Loop: core.LoopOff}))
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

// TestOverPathBudgetResultFailsItsJob pins that the pool holds a result to
// its job's MaxPaths too: a member that answers with more paths than the job
// allows has that job failed with the budget error, and its result for the
// batch's other job is accepted as usual.
func TestOverPathBudgetResultFailsItsJob(t *testing.T) {
	network, jobs := testFleetNet()
	jobs[0].Opts.MaxPaths = 1
	both := packSummary(mustRun(t, network, jobs[0].Inject, jobs[0].Packet, core.Options{}))
	good := packSummary(mustRun(t, network, jobs[1].Inject, jobs[1].Packet, jobs[1].Opts))
	member := scriptedMember(t, func(c *conn, f *frame) bool {
		switch f.Kind {
		case frameJobs:
			c.send(&frame{Kind: frameResult, Result: &resultFrame{Index: 0, Name: jobs[0].Name, Summary: both}})
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
	want := `dist: worker 0 sent a malformed result for job "q0": 2 paths exceed the job's budget of 1`
	if out[0].Err == nil || out[0].Err.Error() != want || out[0].Summary != nil {
		t.Errorf("over-budget result: %+v, want error %q", out[0], want)
	}
	if got, want := resultsJSON(t, out[1:]), inProcessJSON(t, network, jobs[1:]); got != want {
		t.Errorf("the member's other result differs from the in-process run:\n got %s\nwant %s", got, want)
	}
}
