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
	"symnet/internal/prog"
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
// delta (re-encoded programs of one port), the frame a Refresh ships.
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
	// summaries beside the programs and v10 ships sub-segment ops.
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
	// broken is ins compiled as SW's input program, its wire form as mutate
	// damaged it; install puts a program in SW's input program's place.
	broken := func(ins sefl.Instr, mutate func(*prog.WireProgram)) *prog.WireProgram {
		w, err := prog.EncodeProgram(prog.Compile(ins, "SW", 0, "SW.in[0]"))
		if err != nil {
			t.Fatal(err)
		}
		mutate(w)
		return w
	}
	install := func(w *prog.WireProgram) func(*setupFrame) {
		return func(s *setupFrame) { s.Programs[0].Prog = w }
	}
	dst := sefl.Ref{LV: sefl.EtherDst}
	isAA, isBB := sefl.Eq(dst, sefl.CW(0xaa, 48)), sefl.Eq(dst, sefl.CW(0xbb, 48))
	sum := broken(sefl.Assign{LV: sefl.EtherDst, E: sefl.Add{A: dst, B: sefl.CW(1, 48)}},
		func(w *prog.WireProgram) { w.Ops[0].E.B = nil })
	not := broken(sefl.Constrain{C: sefl.CNot{C: isAA}}, func(w *prog.WireProgram) { w.CondTab[1].C = -1 })
	or := broken(sefl.Constrain{C: sefl.COr{Cs: []sefl.Cond{isAA, isBB}}}, func(w *prog.WireProgram) { w.CondTab[1].R = nil })
	// An If's arms are segments 0 and 1; it is op 2, in the entry segment 2.
	branch := sefl.If{C: isAA, Then: sefl.Forward{Port: 0}, Else: sefl.Forward{Port: 1}}
	twice := broken(branch, func(w *prog.WireProgram) { w.Ops[2].Else = w.Ops[2].Then })
	entered := broken(branch, func(w *prog.WireProgram) { w.Entry = w.Ops[2].Then })
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
		{
			name:   "program entry without a program",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) { s.Programs[0].Prog = nil })},
			want:   "decoding setup: prog: decode: program entry without a program",
		},
		{
			// An If whose arm is its own segment: installed and run, it
			// recursed until the stack overflowed, which no recover catches.
			name: "setup with a cyclic segment",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) {
				w := s.Programs[0].Prog
				op := &w.Ops[w.Segs[w.Entry].Lo]
				op.Kind, op.Then, op.Else = prog.OpIf, w.Entry, w.Entry
			})},
			want: "decoding setup: prog: decode SW.in[0]: op 0 in segment 0 enters segment 0; want an earlier one",
		},
		// A segment resumes where the one If entering it says, and the entry
		// resumes nowhere: two entries, or an entered entry, have no single
		// place to resume.
		{
			name:   "setup with a segment two arms enter",
			frames: []*frame{hello, fullBatch(install(twice))},
			want:   "decoding setup: prog: decode SW.in[0]: op 2 enters segment 0, which another If arm enters",
		},
		{
			name:   "setup with an arm entering the entry",
			frames: []*frame{hello, fullBatch(install(entered))},
			want:   "decoding setup: prog: decode SW.in[0]: op 2 enters the entry segment 0",
		},
		// Ops that lack what their kind reads, each of which panicked once
		// run, and a kind past the last one.
		{
			name: "setup with a condition-less if",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) {
				w := s.Programs[0].Prog
				w.Segs, w.Entry = append([]prog.Seg{{}}, w.Segs...), w.Entry+1
				op := &w.Ops[0]
				op.Kind, op.C, op.Then, op.Else = prog.OpIf, -1, 0, 0
			})},
			want: fmt.Sprintf("decoding setup: prog: decode SW.in[0]: op 0 of kind %d has no condition", prog.OpIf),
		},
		{
			name: "setup with a condition-less constrain",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) {
				op := &s.Programs[0].Prog.Ops[0]
				op.Kind, op.C = prog.OpConstrain, -1
			})},
			want: fmt.Sprintf("decoding setup: prog: decode SW.in[0]: op 0 of kind %d has no condition", prog.OpConstrain),
		},
		{
			name: "setup with a constrain rendering another instruction",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) {
				w := s.Programs[0].Prog
				w.CondTab = append(w.CondTab, prog.WireCCond{C: -1})
				op := &w.Ops[0]
				op.Kind, op.C = prog.OpConstrain, int32(len(w.CondTab)-1)
			})},
			want: fmt.Sprintf("decoding setup: prog: decode SW.in[0]: op 0 of kind %d has no Constrain instruction", prog.OpConstrain),
		},
		{
			name:   "setup with a loop-less for",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) { s.Programs[0].Prog.Ops[0].Kind = prog.OpFor })},
			want:   fmt.Sprintf("decoding setup: prog: decode SW.in[0]: op 0 of kind %d has no loop", prog.OpFor),
		},
		{
			name:   "setup with an expression-less assign",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) { s.Programs[0].Prog.Ops[0].Kind = prog.OpAssign })},
			want:   fmt.Sprintf("decoding setup: prog: decode SW.in[0]: op 0 of kind %d has no expression", prog.OpAssign),
		},
		{
			name:   "setup with an op kind past the last",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) { s.Programs[0].Prog.Ops[0].Kind = prog.OpUnknown + 1 })},
			want:   fmt.Sprintf("decoding setup: prog: decode SW.in[0]: op 0 of kind %d is past the last kind", prog.OpUnknown+1),
		},
		// Ops whose expression or condition tree lacks a node its kind
		// reads, which the executors read without a check.
		{
			name:   "setup with an operand-less sum",
			frames: []*frame{hello, fullBatch(install(sum))},
			want:   fmt.Sprintf("decoding setup: prog: decode SW.in[0]: op 0 of kind %d has an incomplete expression: an arithmetic node lacks an operand", prog.OpAssign),
		},
		{
			name:   "setup with a child-less not",
			frames: []*frame{hello, fullBatch(install(not))},
			want: fmt.Sprintf("decoding setup: prog: decode SW.in[0]: op 0 of kind %d has an incomplete condition: cond 1 of kind %d has no child",
				prog.OpConstrain, not.CondTab[1].Kind),
		},
		{
			name:   "setup with an or over an incomplete child",
			frames: []*frame{hello, fullBatch(install(or))},
			want: fmt.Sprintf("decoding setup: prog: decode SW.in[0]: op 0 of kind %d has an incomplete condition: cond 1 of kind %d lacks an operand",
				prog.OpConstrain, or.CondTab[1].Kind),
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
				s.Programs[0].Prog.Ops[0].Ins = ins
			})},
			want: "decoding setup: prog: decode SW.in[0] op 0: sefl: table row 1: prefix length 49 outside the 48-bit field",
		},
		// An installed program is a member's only code for its port, so it
		// must be the element's own and name a port the element has.
		{
			name:   "setup installing a program on another element",
			frames: []*frame{hello, fullBatch(func(s *setupFrame) { s.Programs[0].Elem = "H0" })},
			want:   "decoding setup: core: install program H0.in[0]: compiled for SW instance 0, installed on H0 instance 1",
		},
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
