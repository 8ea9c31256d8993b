// Package conform implements the automated testing framework of §8.3: it
// compares a SEFL model against the "real implementation" — here, the
// concrete interpreters paired with every Click element. The procedure
// follows the paper's steps:
//
//  1. run a reachability test over the model with a symbolic TCP/IP packet;
//  2. solve each path's constraints into a concrete packet;
//  3. inject the packet into the running (concrete) pipeline;
//  4. compare the captured output against the symbolic prediction;
//  5. repeat for all paths, then
//  6. fuzz with random packets checked against the model's verdicts.
package conform

import (
	"fmt"
	"math/rand"

	"symnet/internal/click"
	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// Harness couples a model network with its concrete twin.
type Harness struct {
	Net      *core.Network
	Concrete map[string]click.Concrete
	Inject   core.PortRef
	// Dictionary biases the random phase: with probability 1/2 a listed
	// field draws one of its candidate values instead of a uniform random
	// one. Keyed by template field name (e.g. "EtherDst"). Without this, a
	// 48-bit MAC filter would never be hit by uniform fuzzing — the same
	// reason ATPG derives test packets from the rule space.
	Dictionary map[string][]uint64
}

// Mismatch is one disagreement between model and implementation.
type Mismatch struct {
	PathID int
	Packet *click.Packet
	Reason string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("path %d: %s (packet %s)", m.PathID, m.Reason, m.Packet)
}

// Report summarizes a conformance run.
type Report struct {
	PathsTested  int
	RandomTested int
	Mismatches   []Mismatch
	Loops        int
}

// OK reports whether model and implementation agreed everywhere.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 }

// templField describes one template header field by absolute offset (the
// standard NewTCPPacket layout: L2@0, L3@112, L4@272, payload@432).
type templField struct {
	name string
	off  int64
	size int
	get  func(p *click.Packet) (uint64, bool)
	set  func(p *click.Packet, v uint64)
}

func tcpTemplate() []templField {
	return []templField{
		{"EtherDst", 0, 48, func(p *click.Packet) (uint64, bool) {
			if p.Ether == nil {
				return 0, false
			}
			return p.Ether.Dst, true
		}, func(p *click.Packet, v uint64) { p.Ether.Dst = v }},
		{"EtherSrc", 48, 48, func(p *click.Packet) (uint64, bool) {
			if p.Ether == nil {
				return 0, false
			}
			return p.Ether.Src, true
		}, func(p *click.Packet, v uint64) { p.Ether.Src = v }},
		{"EtherProto", 96, 16, func(p *click.Packet) (uint64, bool) {
			if p.Ether == nil {
				return 0, false
			}
			return p.Ether.Proto, true
		}, func(p *click.Packet, v uint64) { p.Ether.Proto = v }},
		{"IPLen", 112 + 16, 16, ipGet(func(h *click.IPHdr) uint64 { return h.Len }), ipSet(func(h *click.IPHdr, v uint64) { h.Len = v })},
		{"IPID", 112 + 32, 16, ipGet(func(h *click.IPHdr) uint64 { return h.ID }), ipSet(func(h *click.IPHdr, v uint64) { h.ID = v })},
		{"IPFlags", 112 + 48, 16, ipGet(func(h *click.IPHdr) uint64 { return h.Flags }), ipSet(func(h *click.IPHdr, v uint64) { h.Flags = v })},
		{"IPTTL", 112 + 64, 8, ipGet(func(h *click.IPHdr) uint64 { return h.TTL }), ipSet(func(h *click.IPHdr, v uint64) { h.TTL = v })},
		{"IPProto", 112 + 72, 8, ipGet(func(h *click.IPHdr) uint64 { return h.Proto }), ipSet(func(h *click.IPHdr, v uint64) { h.Proto = v })},
		{"IPChksum", 112 + 80, 16, ipGet(func(h *click.IPHdr) uint64 { return h.Chksum }), ipSet(func(h *click.IPHdr, v uint64) { h.Chksum = v })},
		{"IPSrc", 112 + 96, 32, ipGet(func(h *click.IPHdr) uint64 { return h.Src }), ipSet(func(h *click.IPHdr, v uint64) { h.Src = v })},
		{"IPDst", 112 + 128, 32, ipGet(func(h *click.IPHdr) uint64 { return h.Dst }), ipSet(func(h *click.IPHdr, v uint64) { h.Dst = v })},
		{"TcpSrc", 272 + 0, 16, tcpGet(func(h *click.TCPHdr) uint64 { return h.Src }), tcpSet(func(h *click.TCPHdr, v uint64) { h.Src = v })},
		{"TcpDst", 272 + 16, 16, tcpGet(func(h *click.TCPHdr) uint64 { return h.Dst }), tcpSet(func(h *click.TCPHdr, v uint64) { h.Dst = v })},
		{"TcpSeq", 272 + 32, 32, tcpGet(func(h *click.TCPHdr) uint64 { return h.Seq }), tcpSet(func(h *click.TCPHdr, v uint64) { h.Seq = v })},
		{"TcpAck", 272 + 64, 32, tcpGet(func(h *click.TCPHdr) uint64 { return h.Ack }), tcpSet(func(h *click.TCPHdr, v uint64) { h.Ack = v })},
		{"TcpFlags", 272 + 96, 16, tcpGet(func(h *click.TCPHdr) uint64 { return h.Flags }), tcpSet(func(h *click.TCPHdr, v uint64) { h.Flags = v })},
		{"TcpWin", 272 + 112, 16, tcpGet(func(h *click.TCPHdr) uint64 { return h.Win }), tcpSet(func(h *click.TCPHdr, v uint64) { h.Win = v })},
		{"TcpPayload", 432, 64, func(p *click.Packet) (uint64, bool) { return p.Payload, true }, func(p *click.Packet, v uint64) { p.Payload = v }},
	}
}

func ipGet(g func(*click.IPHdr) uint64) func(*click.Packet) (uint64, bool) {
	return func(p *click.Packet) (uint64, bool) {
		ip := p.InnerIP()
		if ip == nil {
			return 0, false
		}
		return g(ip), true
	}
}

func ipSet(s func(*click.IPHdr, uint64)) func(*click.Packet, uint64) {
	return func(p *click.Packet, v uint64) { s(p.InnerIP(), v) }
}

func tcpGet(g func(*click.TCPHdr) uint64) func(*click.Packet) (uint64, bool) {
	return func(p *click.Packet) (uint64, bool) {
		if p.TCP == nil {
			return 0, false
		}
		return g(p.TCP), true
	}
}

func tcpSet(s func(*click.TCPHdr, uint64)) func(*click.Packet, uint64) {
	return func(p *click.Packet, v uint64) { s(p.TCP, v) }
}

// Run executes the full conformance procedure with nRandom fuzz packets.
func Run(h Harness, nRandom int, seed int64) (*Report, error) {
	return run(h, nRandom, seed, core.Options{})
}

// run is Run with the model explored under opts.
func run(h Harness, nRandom int, seed int64, opts core.Options) (*Report, error) {
	rep := &Report{}
	res, err := core.Run(h.Net, h.Inject, sefl.NewTCPPacket(), opts)
	if err != nil {
		return nil, err
	}
	rep.Loops = res.Stats.Looped
	fields := tcpTemplate()
	for _, p := range res.Paths {
		if p.Status != core.Delivered {
			continue
		}
		// Two concrete packets per path: a boundary model (minimum values —
		// catches wrap-around bugs like DecIPTTL) and a diversified model
		// (distinct values per field — catches aliasing bugs like the
		// ports-not-mirrored IPMirror model). Both cover every symbol a
		// template field starts or ends the path with, constrained or not.
		ctx := p.Ctx.CloneInto(new(solver.Context))
		for _, f := range fields {
			if hist, err := p.Mem.HdrHistory(f.off, f.size); err == nil && len(hist) > 0 {
				ctx.Mention(hist[0])
				ctx.Mention(hist[len(hist)-1])
			}
		}
		boundary, ok := ctx.Model()
		if !ok {
			rep.Mismatches = append(rep.Mismatches, Mismatch{PathID: p.ID, Reason: "delivered path has unsatisfiable constraints"})
			continue
		}
		diverse, _ := ctx.ModelDiverse(uint64(p.ID))
		rep.PathsTested++
		for _, model := range []map[expr.SymID]uint64{boundary, diverse} {
			if model == nil {
				continue
			}
			pkt, err := buildPacket(p, model, fields)
			if err != nil {
				return nil, fmt.Errorf("conform: path %d: %w", p.ID, err)
			}
			h.testPacketAgainstPath(rep, p, model, pkt, fields)
		}
	}
	// Random phase (§8.3 step 6).
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nRandom; i++ {
		pkt := randomPacket(rng)
		h.applyDictionary(rng, pkt, fields)
		rep.RandomTested++
		h.testRandomPacket(rep, res, pkt, fields)
	}
	return rep, nil
}

// applyDictionary overrides fields with dictionary candidates.
func (h Harness) applyDictionary(rng *rand.Rand, pkt *click.Packet, fields []templField) {
	if len(h.Dictionary) == 0 {
		return
	}
	for _, f := range fields {
		vals := h.Dictionary[f.name]
		if len(vals) == 0 || rng.Intn(2) == 0 {
			continue
		}
		f.set(pkt, vals[rng.Intn(len(vals))])
	}
}

// buildPacket reconstructs the injected packet of a path from a model: each
// template field's *first* recorded value evaluated under the assignment.
func buildPacket(p *core.Path, model map[expr.SymID]uint64, fields []templField) (*click.Packet, error) {
	pkt := &click.Packet{
		Ether: &click.EtherHdr{},
		IP:    []*click.IPHdr{{}},
		TCP:   &click.TCPHdr{},
	}
	for _, f := range fields {
		hist, err := p.Mem.HdrHistory(f.off, f.size)
		if err != nil || len(hist) == 0 {
			return nil, fmt.Errorf("field %s has no history: %v", f.name, err)
		}
		v, err := evalLin(hist[0], model)
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", f.name, err)
		}
		f.set(pkt, v)
	}
	return pkt, nil
}

func evalLin(l expr.Lin, model map[expr.SymID]uint64) (uint64, error) {
	if v, ok := l.ConstVal(); ok {
		return v, nil
	}
	base, ok := model[l.Sym]
	if !ok {
		return 0, fmt.Errorf("model misses symbol s%d", l.Sym)
	}
	return (base + l.Add) & expr.Mask(l.Width), nil
}

// runConcrete pushes a packet through the concrete pipeline, following the
// same links as the model network. It returns the final resting port, the
// final packet, delivery flag, and whether a forwarding cycle was detected
// (hop budget exhausted).
func (h Harness) runConcrete(pkt *click.Packet) (core.PortRef, *click.Packet, bool, bool) {
	here := h.Inject
	cur := pkt
	for hops := 0; hops < 256; hops++ {
		impl, ok := h.Concrete[here.Elem]
		if !ok {
			// No concrete implementation (e.g. plain sink): the packet
			// rests at this input port.
			return here, cur, true, false
		}
		outPort, out, delivered := impl.Process(here.Port, cur)
		if !delivered {
			return here, nil, false, false
		}
		outRef := core.PortRef{Elem: here.Elem, Port: outPort, Out: true}
		next, linked := h.Net.Follow(outRef)
		if !linked {
			return outRef, out, true, false
		}
		here = next
		cur = out
	}
	return here, cur, false, true
}

// testPacketAgainstPath runs one solved packet through the concrete
// pipeline and compares endpoint and headers with the symbolic path.
func (h Harness) testPacketAgainstPath(rep *Report, p *core.Path, model map[expr.SymID]uint64, pkt *click.Packet, fields []templField) {
	finalRef, out, delivered, looped := h.runConcrete(pkt.Clone())
	if looped {
		rep.Mismatches = append(rep.Mismatches, Mismatch{PathID: p.ID, Packet: pkt, Reason: "concrete pipeline loops"})
		return
	}
	if !delivered {
		rep.Mismatches = append(rep.Mismatches, Mismatch{PathID: p.ID, Packet: pkt,
			Reason: "model delivers but implementation drops (tcpdump timeout)"})
		return
	}
	if want := p.Last(); want != finalRef {
		rep.Mismatches = append(rep.Mismatches, Mismatch{PathID: p.ID, Packet: pkt,
			Reason: fmt.Sprintf("model delivers at %s, implementation at %s", want, finalRef)})
		return
	}
	// Compare final header fields (§8.3 step 4: captured header values are
	// added as constraints and checked — here the solver assignment is the
	// evaluation).
	for _, f := range fields {
		got, ok := f.get(out)
		if !ok {
			continue // layer absent in the concrete packet
		}
		v, err := p.Mem.ReadHdr(f.off, f.size)
		if err != nil {
			continue // field gone in the model (encap/strip)
		}
		want, err := evalLin(v, model)
		if err != nil {
			continue
		}
		if got != want {
			rep.Mismatches = append(rep.Mismatches, Mismatch{PathID: p.ID, Packet: pkt,
				Reason: fmt.Sprintf("field %s: implementation %#x, model %#x", f.name, got, want)})
		}
	}
}

// testRandomPacket checks a fuzz packet: the implementation's verdict must
// match some feasible symbolic path (or a failed/dropped verdict).
func (h Harness) testRandomPacket(rep *Report, res *core.Result, pkt *click.Packet, fields []templField) {
	finalRef, _, delivered, looped := h.runConcrete(pkt.Clone())
	if looped {
		return // loops are reported by the symbolic side
	}
	// Find the symbolic path this packet takes: the delivered path whose
	// constraints admit the packet's initial field values.
	var match *core.Path
	for _, p := range res.Paths {
		if p.Status != core.Delivered {
			continue
		}
		if pathAdmits(p, pkt, fields) {
			match = p
			break
		}
	}
	switch {
	case match == nil && delivered:
		rep.Mismatches = append(rep.Mismatches, Mismatch{PathID: -1, Packet: pkt,
			Reason: fmt.Sprintf("implementation delivers at %s but no model path admits the packet", finalRef)})
	case match != nil && !delivered:
		rep.Mismatches = append(rep.Mismatches, Mismatch{PathID: match.ID, Packet: pkt,
			Reason: "model path admits packet but implementation drops"})
	case match != nil && delivered && match.Last() != finalRef:
		rep.Mismatches = append(rep.Mismatches, Mismatch{PathID: match.ID, Packet: pkt,
			Reason: fmt.Sprintf("implementation delivers at %s, model at %s", finalRef, match.Last())})
	}
}

// pathAdmits checks whether a path's constraints are consistent with the
// packet's initial field values.
func pathAdmits(p *core.Path, pkt *click.Packet, fields []templField) bool {
	ctx := p.Ctx.CloneInto(new(solver.Context))
	for _, f := range fields {
		v, ok := f.get(pkt)
		if !ok {
			continue
		}
		hist, err := p.Mem.HdrHistory(f.off, f.size)
		if err != nil || len(hist) == 0 {
			return false
		}
		if !ctx.Add(expr.NewCmp(expr.Eq, hist[0], expr.Const(v, hist[0].Width))) {
			return false
		}
	}
	return ctx.Sat()
}

// randomPacket draws a concrete TCP packet.
func randomPacket(rng *rand.Rand) *click.Packet {
	return &click.Packet{
		Ether: &click.EtherHdr{
			Dst:   rng.Uint64() & expr.Mask(48),
			Src:   rng.Uint64() & expr.Mask(48),
			Proto: sefl.EtherTypeIPv4,
		},
		IP: []*click.IPHdr{{
			Len:   20 + uint64(rng.Intn(1480)),
			ID:    uint64(rng.Intn(1 << 16)),
			TTL:   uint64(1 + rng.Intn(255)),
			Proto: sefl.ProtoTCP,
			Src:   uint64(rng.Uint32()),
			Dst:   uint64(rng.Uint32()),
		}},
		TCP: &click.TCPHdr{
			Src: uint64(rng.Intn(1 << 16)),
			Dst: uint64(rng.Intn(1 << 16)),
			Seq: uint64(rng.Uint32()),
			Ack: uint64(rng.Uint32()),
		},
		Payload: rng.Uint64(),
	}
}
