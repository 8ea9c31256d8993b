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
	"symnet/internal/memory"
	"symnet/internal/sefl"
	"symnet/internal/solver"
	"symnet/internal/verify"
)

// Harness couples a model network with its concrete twin, both from one
// parsed Click configuration (click.ParseConfig's Net and Concrete).
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

// templField is one field of the TCP template (sefl.NewTCPPacket) and where
// a concrete packet keeps it: at returns nil when the packet lacks the
// field's layer. IP fields are the outermost IP header's, the one a model's
// L3 tag names.
type templField struct {
	hdr sefl.Hdr
	at  func(p *click.Packet) *uint64
}

func tcpTemplate() []templField {
	ether := func(f func(*click.EtherHdr) *uint64) func(*click.Packet) *uint64 {
		return func(p *click.Packet) *uint64 {
			if p.Ether == nil {
				return nil
			}
			return f(p.Ether)
		}
	}
	ip := func(f func(*click.IPHdr) *uint64) func(*click.Packet) *uint64 {
		return func(p *click.Packet) *uint64 {
			if len(p.IP) == 0 {
				return nil
			}
			return f(p.IP[0])
		}
	}
	tcp := func(f func(*click.TCPHdr) *uint64) func(*click.Packet) *uint64 {
		return func(p *click.Packet) *uint64 {
			if p.TCP == nil {
				return nil
			}
			return f(p.TCP)
		}
	}
	l4 := func(rel int64, name string) sefl.Hdr {
		return sefl.Hdr{Off: sefl.FromTag(sefl.TagL4, rel), Size: 16, Name: name}
	}
	return []templField{
		{sefl.EtherDst, ether(func(h *click.EtherHdr) *uint64 { return &h.Dst })},
		{sefl.EtherSrc, ether(func(h *click.EtherHdr) *uint64 { return &h.Src })},
		{sefl.EtherProto, ether(func(h *click.EtherHdr) *uint64 { return &h.Proto })},
		{sefl.IPLen, ip(func(h *click.IPHdr) *uint64 { return &h.Len })},
		{sefl.IPID, ip(func(h *click.IPHdr) *uint64 { return &h.ID })},
		{sefl.IPFlags, ip(func(h *click.IPHdr) *uint64 { return &h.Flags })},
		{sefl.IPTTL, ip(func(h *click.IPHdr) *uint64 { return &h.TTL })},
		{sefl.IPProto, ip(func(h *click.IPHdr) *uint64 { return &h.Proto })},
		{sefl.IPChksum, ip(func(h *click.IPHdr) *uint64 { return &h.Chksum })},
		{sefl.IPSrc, ip(func(h *click.IPHdr) *uint64 { return &h.Src })},
		{sefl.IPDst, ip(func(h *click.IPHdr) *uint64 { return &h.Dst })},
		{sefl.TcpSrc, tcp(func(h *click.TCPHdr) *uint64 { return &h.Src })},
		{sefl.TcpDst, tcp(func(h *click.TCPHdr) *uint64 { return &h.Dst })},
		{sefl.TcpSeq, tcp(func(h *click.TCPHdr) *uint64 { return &h.Seq })},
		{sefl.TcpAck, tcp(func(h *click.TCPHdr) *uint64 { return &h.Ack })},
		{l4(96, "TcpFlags"), tcp(func(h *click.TCPHdr) *uint64 { return &h.Flags })},
		{l4(112, "TcpWin"), tcp(func(h *click.TCPHdr) *uint64 { return &h.Win })},
		{sefl.TcpPayload, func(p *click.Packet) *uint64 { return &p.Payload }},
	}
}

// injection is the TCP template followed by a copy of every field into
// global metadata ("conform.<field>"): a model may strip, push or re-stack
// headers, and the copy still names what was injected.
func injection(fields []templField) sefl.Instr {
	is := []sefl.Instr{sefl.NewTCPPacket()}
	for _, f := range fields {
		m := sefl.Meta{Name: "conform." + f.hdr.Name}
		is = append(is, sefl.Allocate{LV: m, Size: f.hdr.Size}, sefl.Assign{LV: m, E: sefl.Ref{LV: f.hdr}})
	}
	return sefl.Seq(is...)
}

// injected returns the term a field held when the path was injected.
func injected(p *core.Path, f templField) (expr.Lin, error) {
	return p.Mem.ReadMeta(memory.MetaKey{Name: "conform." + f.hdr.Name, Instance: memory.GlobalScope})
}

// Run executes the full conformance procedure with nRandom fuzz packets.
func Run(h Harness, nRandom int, seed int64) (*Report, error) {
	return run(h, nRandom, seed, core.Options{})
}

// run is Run with the model explored under opts.
func run(h Harness, nRandom int, seed int64, opts core.Options) (*Report, error) {
	rep := &Report{}
	fields := tcpTemplate()
	res, err := core.Run(h.Net, h.Inject, injection(fields), opts)
	if err != nil {
		return nil, err
	}
	rep.Loops = res.Stats.Looped
	for _, p := range res.Paths {
		if p.Status != core.Delivered {
			continue
		}
		// Two concrete packets per path: a boundary model (minimum values —
		// catches wrap-around bugs like DecIPTTL) and a diversified model
		// (distinct values per field — catches aliasing bugs like the
		// ports-not-mirrored IPMirror model). Both cover every symbol a
		// template field was injected with or ends the path with,
		// constrained or not.
		ctx := p.Ctx().CloneInto(new(solver.Context))
		for _, f := range fields {
			if v, err := injected(p, f); err == nil {
				ctx.Mention(v)
			}
			if v, err := verify.FieldValue(p, f.hdr); err == nil {
				ctx.Mention(v)
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
		vals := h.Dictionary[f.hdr.Name]
		if len(vals) == 0 || rng.Intn(2) == 0 {
			continue
		}
		*f.at(pkt) = vals[rng.Intn(len(vals))]
	}
}

// buildPacket reconstructs the injected packet of a path from a model: each
// template field's injected value evaluated under the assignment.
func buildPacket(p *core.Path, model map[expr.SymID]uint64, fields []templField) (*click.Packet, error) {
	pkt := &click.Packet{
		Ether: &click.EtherHdr{},
		IP:    []*click.IPHdr{{}},
		TCP:   &click.TCPHdr{},
	}
	for _, f := range fields {
		in, err := injected(p, f)
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", f.hdr.Name, err)
		}
		v, err := evalLin(in, model)
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", f.hdr.Name, err)
		}
		*f.at(pkt) = v
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
	// §8.3 step 4: the injected and the captured header values are added to
	// the path's constraints, which must stay satisfiable. A field the model
	// leaves free (IPinIPEncap's outer IP ID) admits what the implementation
	// writes there.
	ctx := p.Ctx().CloneInto(new(solver.Context))
	pin(ctx, p, pkt, fields)
	for _, f := range fields {
		got := f.at(out)
		v, err := verify.FieldValue(p, f.hdr)
		if (got == nil) != (err != nil) {
			rep.Mismatches = append(rep.Mismatches, Mismatch{PathID: p.ID, Packet: pkt,
				Reason: fmt.Sprintf("field %s: in only one of implementation and model output", f.hdr.Name)})
			return
		}
		if got == nil {
			continue // layer absent on both sides
		}
		if !ctx.Add(expr.NewCmp(expr.Eq, v, expr.Const(*got, v.Width))) {
			want := v.String()
			if w, err := evalLin(v, model); err == nil {
				want = fmt.Sprintf("%#x", w)
			}
			rep.Mismatches = append(rep.Mismatches, Mismatch{PathID: p.ID, Packet: pkt,
				Reason: fmt.Sprintf("field %s: implementation %#x, model %s", f.hdr.Name, *got, want)})
			return
		}
	}
	if !ctx.Sat() {
		rep.Mismatches = append(rep.Mismatches, Mismatch{PathID: p.ID, Packet: pkt,
			Reason: "captured header values contradict the path's constraints"})
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
	// constraints admit the packet's injected field values.
	var match *core.Path
	for _, p := range res.Paths {
		if p.Status != core.Delivered {
			continue
		}
		if ctx := p.Ctx().CloneInto(new(solver.Context)); pin(ctx, p, pkt, fields) && ctx.Sat() {
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

// pin adds to ctx that every field was injected with the packet's value,
// and reports false once that is refuted.
func pin(ctx *solver.Context, p *core.Path, pkt *click.Packet, fields []templField) bool {
	for _, f := range fields {
		in, err := injected(p, f)
		if err != nil || !ctx.Add(expr.NewCmp(expr.Eq, in, expr.Const(*f.at(pkt), in.Width))) {
			return false
		}
	}
	return true
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
