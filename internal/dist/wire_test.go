package dist

// Wire-protocol codec tests: session frames round-trip exactly through the
// gob conn, and malformed streams — truncated or corrupted at the handshake,
// setup, or mid-batch — fail with pointed, byte-stable error messages.

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"

	"symnet/internal/core"
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
func encodeInput(t *testing.T, frames []*frame, trailing []byte) *bytes.Buffer {
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

// TestSessionFramesRoundTrip pushes every v2 session frame through a conn
// pair and checks the decoded payloads field-for-field — including a real
// delta (re-encoded programs of one port), the frame a reconnecting pool
// depends on.
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
		{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, RunID: "run-42"}},
		{Kind: frameHelloAck, HelloAck: &helloAckFrame{Proto: protoVersion, Gen: 7}},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 3, Gen: 8, Workers: 2, Shard: 1, ShareSat: true, Metrics: true, Delta: &deltaFrame{Programs: progs}}},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 4, Gen: 8, SetupRaw: []byte{1, 2, 3}}},
		{Kind: frameCancel, Cancel: &cancelFrame{Indexes: []int{4, 9, 2}}},
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

// TestWorkerSessionHandshakeErrors pins the handshake's failure messages:
// wrong first frame, protocol-version mismatch, and garbage or truncation on
// the wire each produce a distinct, stable error.
func TestWorkerSessionHandshakeErrors(t *testing.T) {
	validHello := encodeInput(t, []*frame{{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, RunID: "r"}}}, nil).Bytes()
	cases := []struct {
		name   string
		frames []*frame
		raw    []byte
		want   string
	}{
		{
			name:   "first frame not hello",
			frames: []*frame{{Kind: frameJobs, Jobs: &jobsFrame{}}},
			want:   "protocol: first frame is 2, want hello",
		},
		{
			name:   "version mismatch",
			frames: []*frame{{Kind: frameHello, Hello: &helloFrame{Proto: 99, RunID: "r"}}},
			want:   "protocol: coordinator speaks version 99, want 3",
		},
		{
			// A v2 coordinator ships setups without verdicts unless a job
			// asks for them; a v3 worker must not serve it.
			name:   "v2 coordinator",
			frames: []*frame{{Kind: frameHello, Hello: &helloFrame{Proto: 2, RunID: "r"}}},
			want:   "protocol: coordinator speaks version 2, want 3",
		},
		{
			name: "garbage stream",
			raw:  []byte("definitely not a gob stream"),
			want: "reading hello:",
		},
		{
			name: "truncated hello",
			raw:  validHello[:len(validHello)-3],
			want: "reading hello:",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := encodeInput(t, tc.frames, tc.raw)
			var out bytes.Buffer
			err := serveSession(newConn(in, &out), nil, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestPoolRefusesV2Worker is the coordinator's side of the version check: a
// fleet member that answers the hello with protocol 2 is refused with the
// pointed mismatch error, before anything is shipped to it.
func TestPoolRefusesV2Worker(t *testing.T) {
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
				c.send(&frame{Kind: frameHelloAck, HelloAck: &helloAckFrame{Proto: 2}})
			}
			nc.Close()
		}
	}()
	_, err = NewPool(Config{Workers: []string{ln.Addr().String()}})
	const want = "dist: worker 0 speaks protocol version 2, want 3"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("NewPool against a v2 worker: error = %v, want substring %q", err, want)
	}
}

// TestWorkerBatchProtocolErrors pins the batch loop's failure messages: a
// delta or reuse setup against a worker holding nothing, a generation
// mismatch on reuse, a corrupt setup blob, and a stream truncated mid-batch.
func TestWorkerBatchProtocolErrors(t *testing.T) {
	net, _ := testFleetNet()
	setup, err := buildSetup(net)
	if err != nil {
		t.Fatal(err)
	}
	setupRaw, err := encodeSetup(setup)
	if err != nil {
		t.Fatal(err)
	}
	hello := &frame{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, RunID: "r"}}
	cases := []struct {
		name     string
		frames   []*frame
		trailing []byte
		want     string
	}{
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := encodeInput(t, tc.frames, tc.trailing)
			var out bytes.Buffer
			err := serveSession(newConn(in, &out), nil, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestWorkerSessionServesBatches drives a full two-batch session (full setup
// then reuse) through a worker on in-memory buffers and checks the reply
// stream frame-for-frame: hello ack, in-order results, a done per batch, and
// summaries byte-identical to the in-process engine's.
func TestWorkerSessionServesBatches(t *testing.T) {
	net, jobs := testFleetNet()
	setup, err := buildSetup(net)
	if err != nil {
		t.Fatal(err)
	}
	setupRaw, err := encodeSetup(setup)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := buildShard(jobs, 0, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	in := encodeInput(t, []*frame{
		{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, RunID: "r"}},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 1, SetupRaw: setupRaw, Workers: 1}},
		{Kind: frameJobs, Jobs: &jobsFrame{Jobs: wire}},
		{Kind: frameEnd},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 2, Gen: 1, Workers: 1}},
		{Kind: frameJobs, Jobs: &jobsFrame{Jobs: wire[:1]}},
		{Kind: frameEnd},
		{Kind: frameBye},
	}, nil)
	var out bytes.Buffer
	if err := serveSession(newConn(in, &out), nil, nil); err != nil {
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
			if f.HelloAck.Gen != 0 {
				t.Fatalf("fresh worker acked generation %d", f.HelloAck.Gen)
			}
		case frameResult:
			if f.Result.Index != e.idx || f.Result.Err != "" {
				t.Fatalf("reply %d: result %+v, want index %d", i, f.Result, e.idx)
			}
			if !jsonEq(t, f.Result.Summary, want[e.idx]) {
				t.Errorf("reply %d: summary for job %d differs from in-process run", i, e.idx)
			}
		case frameDone:
			if f.Done.Seq != uint64(e.idx) {
				t.Fatalf("reply %d: done seq %d, want %d", i, f.Done.Seq, e.idx)
			}
		}
	}
}
