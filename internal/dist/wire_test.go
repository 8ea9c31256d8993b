package dist

// Wire-protocol codec tests: session frames round-trip exactly through the
// gob conn, and malformed streams — truncated or corrupted at the handshake,
// setup, or mid-batch — fail with pointed, byte-stable error messages.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/sefl"
)

// testFleetNet is a two-sink egress switch: small enough to set up in every
// test, rich enough that results have paths, constraints and distinct
// fingerprints (so a stale worker would produce different bytes).
func testFleetNet() (*core.Network, []Job) {
	n := core.NewNetwork()
	sw := n.AddElement("SW", "switch", 1, 2)
	sw.SetInCode(0, sefl.Fork{Ports: []int{0, 1}})
	sw.SetOutCode(0, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(0xaa, 48))})
	sw.SetOutCode(1, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(0xbb, 48))})
	for i, h := range []string{"H0", "H1"} {
		e := n.AddElement(h, "sink", 1, 0)
		e.SetInCode(0, sefl.NoOp{})
		n.MustLink("SW", i, h, 0)
	}
	jobs := []Job{
		{Name: "q0", Inject: core.PortRef{Elem: "SW", Port: 0}, Packet: sefl.NewEthernetPacket()},
		{Name: "q1", Inject: core.PortRef{Elem: "SW", Port: 0}, Packet: sefl.NewEthernetPacket()},
	}
	return n, jobs
}

// encodeInput renders a frame sequence (plus optional trailing raw bytes)
// the way a coordinator would put them on the wire.
func encodeInput(t testing.TB, frames []*frame, trailing []byte) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	c := newConn(&buf, &buf)
	for _, f := range frames {
		if err := c.send(f); err != nil {
			t.Fatalf("encode frame kind %d: %v", f.Kind, err)
		}
	}
	buf.Write(trailing)
	return &buf
}

// jsonEq compares two wire values structurally via their JSON encodings
// (gob is not canonical across streams, JSON of the exported fields is).
func jsonEq(t *testing.T, a, b interface{}) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// TestSessionFramesRoundTrip pushes every session frame through a conn
// pair and checks the decoded payloads field-for-field — including a real
// delta (the source of one port), the frame a Refresh ships.
func TestSessionFramesRoundTrip(t *testing.T) {
	net, _ := testFleetNet()
	progs, err := core.EncodeProgramsFor(net, []core.PortRef{{Elem: "SW", Port: 0, Out: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 {
		t.Fatalf("expected 1 program entry for SW.out[0], got %d", len(progs))
	}
	frames := []*frame{
		{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion}},
		{Kind: frameHelloAck, HelloAck: &helloAckFrame{Proto: protoVersion}},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 3, Gen: 8, Workers: 2, Shard: 1, Metrics: true, Delta: &deltaFrame{Programs: progs}}},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 4, Gen: 8, SetupRaw: []byte{1, 2, 3}}},
		{Kind: frameEnd},
		{Kind: frameDone, Done: &doneFrame{Seq: 3}},
		{Kind: frameBye},
	}
	var buf bytes.Buffer
	c := newConn(&buf, &buf)
	for _, f := range frames {
		if err := c.send(f); err != nil {
			t.Fatalf("send kind %d: %v", f.Kind, err)
		}
	}
	for i, want := range frames {
		got, err := c.recv()
		if err != nil {
			t.Fatalf("recv frame %d: %v", i, err)
		}
		if got.Kind != want.Kind {
			t.Fatalf("frame %d: kind %d, want %d", i, got.Kind, want.Kind)
		}
		if !jsonEq(t, got, want) {
			t.Errorf("frame %d (kind %d) did not round-trip", i, want.Kind)
		}
	}
}

// streamCase is one coordinator-side byte stream fed to a worker session —
// frames as a coordinator would encode them, then optional raw trailing bytes
// — and the error substring serveSession must answer it with ("" for a clean
// session). The error tests below assert want; FuzzServeSession's committed
// seed corpus is every case's stream (see TestFuzzSeedCorpusCurrent).
type streamCase struct {
	name     string
	frames   []*frame
	trailing []byte
	want     string
	// maxHops and maxPaths are, for a result case, the MaxHops and MaxPaths
	// of the job the result answers: unpack holds it to those budgets.
	maxHops, maxPaths int
}

func handshakeErrorCases(t testing.TB) []streamCase {
	validHello := encodeInput(t, []*frame{{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion}}}, nil).Bytes()
	cases := []streamCase{
		{
			name:   "first frame not hello",
			frames: []*frame{{Kind: frameJobs, Jobs: &jobsFrame{}}},
			want:   "protocol: first frame is 4, want hello",
		},
		{
			name:   "version mismatch",
			frames: []*frame{{Kind: frameHello, Hello: &helloFrame{Proto: 99}}},
			want:   fmt.Sprintf("protocol: coordinator speaks version 99, want %d", protoVersion),
		},
		{
			name:     "garbage stream",
			trailing: []byte("definitely not a gob stream"),
			want:     "reading hello:",
		},
		{
			name:     "truncated hello",
			trailing: validHello[:len(validHello)-3],
			want:     "reading hello:",
		},
	}
	// Every older coordinator is refused by version, up front, not as an
	// unknown first frame or mid-batch: the hello has kept its kind number,
	// while v4 numbers the kinds after result differently, v5 cannot read a
	// summary slab's For nodes, v6 expects full Summaries in results, v7
	// expects a reconnect to find the network it installed before, v8
	// ships table guards for the worker to rebuild as Or-trees, v9 ships
	// summaries beside the programs, v10 ships sub-segment ops, v11 ships
	// port source beside the programs, v12 ships compiled programs and v16
	// renders a refuted table guard's message as its Or-tree.
	for v := 3; v < protoVersion; v++ {
		cases = append(cases, streamCase{
			name:   fmt.Sprintf("v%d coordinator", v),
			frames: []*frame{{Kind: frameHello, Hello: &helloFrame{Proto: v}}},
			want:   fmt.Sprintf("protocol: coordinator speaks version %d, want %d", v, protoVersion),
		})
	}
	return cases
}

// runStreamCases serves each stream and checks its pinned error.
func runStreamCases(t *testing.T, cases []streamCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := encodeInput(t, tc.frames, tc.trailing)
			var out bytes.Buffer
			err := serveSession(newConn(in, &out), nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestWorkerSessionHandshakeErrors pins the handshake's failure messages:
// wrong first frame, protocol-version mismatch, and garbage or truncation on
// the wire each produce a distinct, stable error.
func TestWorkerSessionHandshakeErrors(t *testing.T) {
	runStreamCases(t, handshakeErrorCases(t))
}

// TestPoolRefusesOlderWorker is the coordinator's side of the version check:
// a fleet member that answers the hello with any older protocol — whose
// helloAck kept its kind number, so this is what an older symworker sends —
// is refused with the pointed mismatch error before anything is shipped to
// it (a v6 member would answer every job with a result this coordinator
// cannot decode).
func TestPoolRefusesOlderWorker(t *testing.T) {
	for proto := 3; proto < protoVersion; proto++ {
		t.Run(fmt.Sprintf("v%d", proto), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					nc, err := ln.Accept()
					if err != nil {
						return
					}
					c := newConn(nc, nc)
					if _, err := c.recv(); err == nil {
						c.send(&frame{Kind: frameHelloAck, HelloAck: &helloAckFrame{Proto: proto}})
					}
					nc.Close()
				}
			}()
			_, err = NewPool(Config{Workers: []string{ln.Addr().String()}})
			want := fmt.Sprintf("dist: worker 0 speaks protocol version %d, want %d", proto, protoVersion)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("NewPool against a v%d worker: error = %v, want substring %q", proto, err, want)
			}
		})
	}
}

// testSetupRaw is the full setup blob of a network, as mutate (when non-nil)
// left it.
func testSetupRaw(t testing.TB, net *core.Network, mutate func(*setupFrame)) []byte {
	t.Helper()
	setup, err := buildSetup(net)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(setup)
	}
	raw, err := encodeSetup(setup)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func batchErrorCases(t testing.TB) []streamCase {
	net, _ := testFleetNet()
	setupRaw := testSetupRaw(t, net, nil)
	hello := &frame{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion}}
	// fullBatch opens a batch with a full setup mutated from the valid one
	// (the three cases built with it are crashers FuzzServeSession found).
	fullBatch := func(mutate func(*setupFrame)) *frame {
		return &frame{Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 1, SetupRaw: testSetupRaw(t, net, mutate), Workers: 1}}
	}
	// source puts w in SW's input entry's place.
	source := func(w *sefl.WireInstr) func(*setupFrame) {
		return func(s *setupFrame) { s.Programs[0].Src = w }
	}
	// forWith is a For whose body reference is ref (dist_test.go registers
	// dist.test.panic).
	forWith := func(ref string) *sefl.WireInstr {
		w, err := sefl.EncodeInstr(sefl.NewFor("^x", "dist.test.panic", ""))
		if err != nil {
			t.Fatal(err)
		}
		w.Ref = ref
		return w
	}
	return []streamCase{
		{
			name:   "setup without a network",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) { s.Net = nil })},
			want:   "decoding setup: core: decode network: no network in the setup",
		},
		{
			name: "setup with a duplicate element",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) {
				s.Net.Elems = append(s.Net.Elems, s.Net.Elems[0])
			})},
			want: "decoding setup: core: decode element SW: duplicate name",
		},
		// Source the member cannot rebuild is refused as it decodes: a For
		// body crosses by its registry name, and an instruction kind past
		// the last names no instruction.
		{
			name:   "setup with a loop-less for",
			frames: []*frame{hello, fullBatch(source(forWith("")))},
			want:   `decoding setup: core: install program SW.in[0]: sefl: decode For("^x"): unregistered For body ""`,
		},
		{
			name:   "setup with a for naming an unregistered body",
			frames: []*frame{hello, fullBatch(source(forWith("dist.test.unregistered")))},
			want:   `decoding setup: core: install program SW.in[0]: sefl: decode For("^x"): unregistered For body "dist.test.unregistered"`,
		},
		{
			name:   "setup with an op kind past the last",
			frames: []*frame{hello, fullBatch(source(&sefl.WireInstr{Kind: 255}))},
			want:   "decoding setup: core: install program SW.in[0]: sefl: unknown wire instruction kind 255",
		},
		{
			// The compiler trusts a table's rows, so the decoder refuses a
			// row no model writes.
			name: "setup with a malformed table",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) {
				ins, err := sefl.EncodeInstr(sefl.Constrain{C: sefl.Table{F: sefl.EtherDst, Rows: []expr.GuardRow{
					{Kind: expr.GuardEq, V: 0xaa}, {Kind: expr.GuardPrefix, Len: 49},
				}}})
				if err != nil {
					t.Fatal(err)
				}
				s.Programs[0].Src = ins
			})},
			want: "decoding setup: core: install program SW.in[0]: sefl: table row 1: prefix length 49 outside the 48-bit field",
		},
		// An entry must name a port the element has.
		{
			name:   "setup installing a program on a missing port",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) { s.Programs[0].Port = 1 })},
			want:   "decoding setup: core: install program SW.in[1]: SW has 1 input ports",
		},
		{
			name:   "reuse without retained state",
			frames: []*frame{hello, {Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 1}}},
			want:   "protocol: reuse setup with no retained network",
		},
		{
			name: "delta without retained state",
			frames: []*frame{hello, {Kind: frameBatch, Batch: &batchFrame{
				Seq: 1, Gen: 2, Delta: &deltaFrame{Programs: []core.WireProgramEntry{{Elem: "SW"}}},
			}}},
			want: "protocol: delta setup with no retained network",
		},
		{
			name:   "corrupt setup blob",
			frames: []*frame{hello, {Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 1, SetupRaw: []byte("corrupt")}}},
			want:   "decoding setup:",
		},
		{
			name: "reuse at wrong generation",
			frames: []*frame{
				hello,
				{Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 5, SetupRaw: setupRaw, Workers: 1}},
				{Kind: frameEnd},
				{Kind: frameBatch, Batch: &batchFrame{Seq: 2, Gen: 9, Workers: 1}},
			},
			want: "protocol: reuse setup at generation 9, worker holds 5",
		},
		{
			name: "truncated mid-batch",
			frames: []*frame{
				hello,
				{Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 1, SetupRaw: setupRaw, Workers: 1}},
			},
			trailing: []byte{0x01},
			want:     "reading frame:",
		},
	}
}

// TestWorkerBatchProtocolErrors pins the batch loop's failure messages: a
// delta or reuse setup against a worker holding nothing, a generation
// mismatch on reuse, a corrupt setup blob, and a stream truncated mid-batch.
func TestWorkerBatchProtocolErrors(t *testing.T) {
	runStreamCases(t, batchErrorCases(t))
}

// incompleteSources is SW input code lacking a child its node reads, each
// under the name of the session that installs it. The wire decodes a missing
// child as nil, so a coordinator can send such source, and a member installs
// it: Compile turns it into the failing path an in-process run of the same
// source takes.
var incompleteSources = []struct {
	name string
	code sefl.Instr
}{
	{"program entry without a program", nil},
	{"setup with a condition-less if", sefl.If{Then: sefl.Forward{Port: 0}, Else: sefl.Forward{Port: 1}}},
	{"setup with a condition-less constrain", sefl.Seq(sefl.Constrain{}, sefl.Fork{Ports: []int{0, 1}})},
	{"setup with an expression-less assign", sefl.Seq(sefl.Assign{LV: sefl.EtherDst}, sefl.Fork{Ports: []int{0, 1}})},
	{"setup with an operand-less sum", sefl.Seq(sefl.Assign{LV: sefl.EtherDst, E: sefl.Add{A: sefl.Ref{LV: sefl.EtherDst}}}, sefl.Fork{Ports: []int{0, 1}})},
	{"setup with a child-less not", sefl.Seq(sefl.Constrain{C: sefl.CNot{}}, sefl.Fork{Ports: []int{0, 1}})},
	{"setup with an or over an incomplete child", sefl.Seq(sefl.Constrain{C: sefl.COr{Cs: []sefl.Cond{
		sefl.Cmp{Op: expr.Eq, L: sefl.Ref{LV: sefl.EtherDst}}, sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(0xbb, 48)),
	}}}, sefl.Fork{Ports: []int{0, 1}})},
}

// incompleteSession is the clean session that installs code as SW's input
// code and runs both of testFleetNet's jobs, with the network and jobs the
// coordinator built it from.
func incompleteSession(t testing.TB, name string, code sefl.Instr) (streamCase, *core.Network, []Job) {
	net, jobs := testFleetNet()
	sw, _ := net.Element("SW")
	sw.SetInCode(0, code)
	wire, err := buildShard(jobs, 0, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	return streamCase{name: name, frames: []*frame{
		{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion}},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 1, SetupRaw: testSetupRaw(t, net, nil), Workers: 1}},
		{Kind: frameJobs, Jobs: &jobsFrame{Jobs: wire}},
		{Kind: frameEnd},
		{Kind: frameBye},
	}}, net, jobs
}

// incompleteSessions is every incompleteSession, for the fuzz seeds.
func incompleteSessions(t testing.TB) []streamCase {
	var out []streamCase
	for _, tc := range incompleteSources {
		sc, _, _ := incompleteSession(t, tc.name, tc.code)
		out = append(out, sc)
	}
	return out
}

// TestWorkerRunsIncompleteSource pins that a member runs incomplete source
// as the coordinator does: each session installs it and answers both jobs
// with summaries byte-identical to the in-process engine's on the
// coordinator's network, each with a failed path, and no panic.
func TestWorkerRunsIncompleteSource(t *testing.T) {
	for _, tc := range incompleteSources {
		t.Run(tc.name, func(t *testing.T) {
			sc, net, jobs := incompleteSession(t, tc.name, tc.code)
			var out bytes.Buffer
			if err := serveSession(newConn(encodeInput(t, sc.frames, nil), &out), nil); err != nil {
				t.Fatalf("serveSession: %v", err)
			}
			c := newConn(&out, &out)
			if f, err := c.recv(); err != nil || f.Kind != frameHelloAck {
				t.Fatalf("first reply: %+v, %v; want the hello ack", f, err)
			}
			for range jobs {
				f, err := c.recv()
				if err != nil || f.Kind != frameResult || f.Result.Err != "" || f.Result.Summary == nil {
					t.Fatalf("reply: %+v, %v; want a result", f, err)
				}
				j := jobs[f.Result.Index]
				got, err := f.Result.Summary.unpack(j.Opts.MaxHops, j.Opts.MaxPaths)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Run(net, j.Inject, j.Packet, j.Opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Failed == 0 {
					t.Fatalf("job %s: no path failed in-process", j.Name)
				}
				if !jsonEq(t, got, Summarize(res)) {
					t.Errorf("job %s: the member's summary differs from the in-process run", j.Name)
				}
			}
		})
	}
}

// servedSession is a clean session that exercises every frame a coordinator
// sends: a full setup with both jobs, a reuse batch with one job, a delta
// batch re-shipping one port's program, and the bye.
func servedSession(t testing.TB) streamCase {
	net, jobs := testFleetNet()
	wire, err := buildShard(jobs, 0, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	ref := core.PortRef{Elem: "SW", Port: 0, Out: true}
	progs, err := core.EncodeProgramsFor(net, []core.PortRef{ref})
	if err != nil {
		t.Fatal(err)
	}
	return streamCase{name: "served session", frames: []*frame{
		{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion}},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 1, SetupRaw: testSetupRaw(t, net, nil), Workers: 1}},
		{Kind: frameJobs, Jobs: &jobsFrame{Jobs: wire}},
		{Kind: frameEnd},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 2, Gen: 1, Workers: 1}},
		{Kind: frameJobs, Jobs: &jobsFrame{Jobs: wire[:1]}},
		{Kind: frameEnd},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 3, Gen: 2, Workers: 1, Delta: &deltaFrame{Programs: progs}}},
		{Kind: frameJobs, Jobs: &jobsFrame{Jobs: wire[1:]}},
		{Kind: frameEnd},
		{Kind: frameBye},
	}}
}

// TestWorkerSessionServesBatches drives a full three-batch session (full
// setup, reuse, delta) through a worker on in-memory buffers and checks the
// reply stream frame-for-frame: hello ack, in-order results, a done per
// batch, and summaries byte-identical to the in-process engine's.
func TestWorkerSessionServesBatches(t *testing.T) {
	net, jobs := testFleetNet()
	sc := servedSession(t)
	in := encodeInput(t, sc.frames, sc.trailing)
	var out bytes.Buffer
	if err := serveSession(newConn(in, &out), nil); err != nil {
		t.Fatalf("serveSession: %v", err)
	}

	// In-process references, one per job, summarized identically.
	want := make(map[int]*Summary)
	for i, j := range jobs {
		res, err := core.Run(net, j.Inject, j.Packet, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = Summarize(res)
	}

	c := newConn(&out, &out)
	expect := []struct {
		kind frameKind
		idx  int // result index, or done seq
	}{
		{frameHelloAck, 0},
		{frameResult, 0}, {frameResult, 1}, {frameDone, 1},
		{frameResult, 0}, {frameDone, 2},
		{frameResult, 1}, {frameDone, 3},
	}
	for i, e := range expect {
		f, err := c.recv()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if f.Kind != e.kind {
			t.Fatalf("reply %d: kind %d, want %d", i, f.Kind, e.kind)
		}
		switch e.kind {
		case frameHelloAck:
			if f.HelloAck.Proto != protoVersion {
				t.Fatalf("worker acked protocol %d, want %d", f.HelloAck.Proto, protoVersion)
			}
		case frameResult:
			if f.Result.Index != e.idx || f.Result.Err != "" || f.Result.Summary == nil {
				t.Fatalf("reply %d: result %+v, want index %d", i, f.Result, e.idx)
			}
			got, err := f.Result.Summary.unpack(jobs[e.idx].Opts.MaxHops, jobs[e.idx].Opts.MaxPaths)
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			if !jsonEq(t, got, want[e.idx]) {
				t.Errorf("reply %d: summary for job %d differs from in-process run", i, e.idx)
			}
		case frameDone:
			if f.Done.Seq != uint64(e.idx) {
				t.Fatalf("reply %d: done seq %d, want %d", i, f.Done.Seq, e.idx)
			}
		}
	}
}
