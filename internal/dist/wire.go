package dist

// The coordinator/worker wire protocol: a bidirectional stream of gob-framed
// messages (gob is self-delimiting, so the stream needs no explicit length
// prefixes) over a TCP connection to a resident `symworker -listen` process.
// Workers log to their own stderr.
//
// A session is a handshake followed by any number of batches:
//
//	coordinator → worker:  hello
//	worker → coordinator:  helloAck                  (what it still holds)
//	per batch:
//	  coordinator → worker:  batch                   (setup full|delta|reuse)
//	  coordinator → worker:  jobs*                   (its shard; re-dispatches)
//	  worker → coordinator:  result*                 (one per job, as it finishes)
//	  coordinator → worker:  end                     (all results accounted)
//	  worker → coordinator:  done                    (+ metrics snapshot)
//	coordinator → worker:  bye
//
// Every type that crosses the wire is a concrete struct of exported fields
// (the sefl/prog/core wire codecs strip interfaces and closures first), so
// gob needs no type registration.

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"io"
	"sync"

	"symnet/internal/core"
	"symnet/internal/obs"
	"symnet/internal/sefl"
)

type frameKind uint8

const (
	// frameHello opens a session (coordinator → worker): names the
	// coordinator's run so a reconnecting worker can report retained state.
	// The two handshake kinds are numbered first so that a later re-cut of
	// the frame set never moves them: peers of different versions then still
	// read each other's hello and fail on the version, by name.
	frameHello frameKind = iota + 1
	// frameHelloAck answers the hello (worker → coordinator) with the setup
	// generation the worker still holds for that run (0: nothing).
	frameHelloAck
	// frameBatch starts one batch: setup (full blob, delta entries, or reuse
	// of retained state) plus per-batch configuration.
	frameBatch
	// frameJobs ships jobs to a worker: its shard of the batch, then one frame
	// per job re-dispatched to it after another member died.
	frameJobs
	// frameResult delivers one finished job (worker → coordinator).
	frameResult
	// frameEnd tells the worker the batch is over (every job is accounted
	// for); the worker drains its queue and answers with frameDone.
	frameEnd
	// frameDone ends the worker's participation in a batch (worker →
	// coordinator), carrying its metrics snapshot when metrics are on.
	frameDone
	// frameBye ends the session cleanly; the worker discards retained state.
	frameBye
)

// protoVersion guards against mixed coordinator/worker builds across the
// TCP boundary. Any change to the
// frame set, the kind numbering or what a frame may carry bumps it (v7: a
// result carries a wireSummary — string table plus history tree — which a
// v6 coordinator could not decode).
const protoVersion = 7

// frame is the single message envelope; Kind selects the payload field.
// frameEnd and frameBye are kind-only.
type frame struct {
	Kind     frameKind
	Hello    *helloFrame
	HelloAck *helloAckFrame
	Batch    *batchFrame
	Jobs     *jobsFrame
	Result   *resultFrame
	Done     *doneFrame
}

// helloFrame opens a session.
type helloFrame struct {
	// Proto is the sender's protocol version; a mismatch fails the
	// handshake on the worker side with a pointed error.
	Proto int
	// RunID identifies the coordinator run (a Pool lifetime). A worker that
	// retains state from a broken connection keys it by RunID, so the same
	// pool reconnecting gets delta setup instead of a full re-encode.
	RunID string
}

// helloAckFrame answers a hello.
type helloAckFrame struct {
	Proto int
	// Gen is the setup generation the worker retains for the hello's RunID;
	// 0 means nothing retained (fresh worker, or state for another run) and
	// the first batch must carry a full setup.
	Gen uint64
}

// batchFrame starts one batch. Exactly one of SetupRaw (full setup blob),
// Delta (changed entries over retained state), or neither (reuse retained
// state unchanged) describes the worker's setup for this batch.
type batchFrame struct {
	// Seq numbers batches within the session; frameDone echoes it.
	Seq uint64
	// Gen is the setup generation this batch runs at; the worker records it
	// and reports it in later handshakes.
	Gen      uint64
	SetupRaw []byte
	Delta    *deltaFrame
	// Workers sizes the worker's in-process queue; Shard labels its metrics
	// and trace spans with the worker's pool index.
	Workers int
	Shard   int
	// Metrics asks the worker to collect a per-batch registry and ship its
	// snapshot in the done frame.
	Metrics bool
}

// deltaFrame re-ships only what changed since the generation the worker
// holds: the re-compiled programs of the touched ports and their
// summarization verdicts, entry for entry. Port ASTs do not ride deltas —
// workers execute installed compiled programs, so delta batches are correct
// for every mode except ASTInterp, which resident pools do not serve.
type deltaFrame struct {
	Programs  []core.WireProgramEntry
	Summaries []core.WireSummaryEntry
}

// doneFrame ends a worker's batch.
type doneFrame struct {
	Seq     uint64
	Metrics *obs.Snapshot
}

// encodeSetup serializes a setup payload once; decodeSetup is its inverse.
func encodeSetup(s *setupFrame) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeSetup(raw []byte) (*setupFrame, error) {
	var s setupFrame
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// setupFrame carries everything a worker needs before any job: the network
// spec (elements, port code ASTs, links) and the coordinator's compiled IR
// for every element-port program, so workers skip recompilation. Per-batch
// configuration (Metrics, queue width) lives on batchFrame — a
// setup outlives batches in a resident pool.
type setupFrame struct {
	Net      *core.WireNetwork
	Programs []core.WireProgramEntry
	// Summaries carries the coordinator's summarization verdict for every
	// program, so workers skip re-summarization the same way Programs lets
	// them skip recompilation.
	Summaries []core.WireSummaryEntry
}

// jobsFrame ships jobs: a member's contiguous shard of the batch, or a
// re-dispatched job.
type jobsFrame struct {
	Jobs []wireJob
}

// wireJob is one verification job. Index is the job's position in the
// coordinator's batch; results carry it back so collection is order-exact.
type wireJob struct {
	Index  int
	Name   string
	Inject core.PortRef
	Packet *sefl.WireInstr
	Opts   wireOptions
}

// wireOptions is the serializable subset of core.Options. Stats collectors
// and cache pointers are per-process and deliberately absent: each worker
// runs its own, and per-job solver statistics come back inside the Summary
// (deterministically — cache hits replay the original counters).
type wireOptions struct {
	MaxHops      int
	MaxPaths     int
	Loop         core.LoopMode
	Trace        bool
	ASTInterp    bool
	IRExec       bool
	OrTreeGuards bool
}

func toWireOptions(o core.Options) wireOptions {
	return wireOptions{
		MaxHops: o.MaxHops, MaxPaths: o.MaxPaths, Loop: o.Loop, Trace: o.Trace,
		ASTInterp: o.ASTInterp, IRExec: o.IRExec, OrTreeGuards: o.OrTreeGuards,
	}
}

func (w wireOptions) options() core.Options {
	return core.Options{
		MaxHops: w.MaxHops, MaxPaths: w.MaxPaths, Loop: w.Loop, Trace: w.Trace,
		ASTInterp: w.ASTInterp, IRExec: w.IRExec, OrTreeGuards: w.OrTreeGuards,
	}
}

// resultFrame is one finished job.
type resultFrame struct {
	Index   int
	Name    string
	Err     string
	Summary *wireSummary
}

// conn wraps one side of a frame stream: buffered gob encoding with a mutex
// so result frames (written from the worker's queue goroutines) never
// interleave mid-frame. A conn can be instrumented to
// count raw frame bytes and encode/decode wall time; uninstrumented, the
// telemetry hooks are nil-pointer branches.
type conn struct {
	cr  *countReader
	cw  *countWriter
	dec *gob.Decoder
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *gob.Encoder
	// encNs/decNs observe gob encode/decode wall time per frame (nil when
	// uninstrumented; decode time includes blocking on the peer, so it is a
	// frame-latency measure on the read side).
	encNs *obs.Histogram
	decNs *obs.Histogram
}

func newConn(r io.Reader, w io.Writer) *conn {
	cr := &countReader{r: r}
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	return &conn{
		cr:  cr,
		cw:  cw,
		dec: gob.NewDecoder(bufio.NewReader(cr)),
		bw:  bw,
		enc: gob.NewEncoder(bw),
	}
}

// instrument attaches wire telemetry: raw bytes received/sent land in
// dist.frame.bytes_in/bytes_out and per-frame encode/decode wall times in
// dist.encode_ns/dist.decode_ns. Call before concurrent use of the conn
// (no-op on a nil registry).
func (c *conn) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.cr.c = reg.Counter("dist.frame.bytes_in")
	c.cw.c = reg.Counter("dist.frame.bytes_out")
	c.encNs = reg.Histogram("dist.encode_ns")
	c.decNs = reg.Histogram("dist.decode_ns")
}

// send encodes one frame and flushes it to the peer.
func (c *conn) send(f *frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.encNs.Start()
	defer t.Stop()
	if err := c.enc.Encode(f); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv decodes the next frame.
func (c *conn) recv() (*frame, error) {
	t := c.decNs.Start()
	defer t.Stop()
	var f frame
	if err := c.dec.Decode(&f); err != nil {
		return nil, err
	}
	return &f, nil
}

// countReader/countWriter count raw bytes through the frame stream. The
// counter pointer is nil until instrument attaches one (a nil-counter Add is
// one branch).
type countReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

type countWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}
