package click

import (
	"symnet/internal/core"
	"symnet/internal/models"
	"symnet/internal/sefl"
)

// Def couples a SEFL model with its concrete implementation for one element
// instance.
type Def struct {
	Kind   string
	NumIn  int
	NumOut int
	// Model installs the SEFL code on the element.
	Model func(e *core.Element)
	// NewConcrete builds a fresh concrete instance (stateful elements get
	// independent state per instance).
	NewConcrete func() Concrete
}

func ref(h sefl.Hdr) sefl.Expr { return sefl.Ref{LV: h} }

// --- IPMirror ---

// IPMirror swaps IP source/destination and transport ports. The paper's
// model bug ("it only mirrored the IP addresses and not ports") is the
// IPMirrorBuggy class of the §8.3 conformance experiments.
func IPMirror() Def { return ipMirror(false) }

func swapFields(a, b sefl.Hdr, tmp string) []sefl.Instr {
	return []sefl.Instr{
		sefl.Allocate{LV: sefl.Meta{Name: tmp}, Size: a.Size},
		sefl.Assign{LV: sefl.Meta{Name: tmp}, E: ref(a)},
		sefl.Assign{LV: a, E: ref(b)},
		sefl.Assign{LV: b, E: sefl.Ref{LV: sefl.Meta{Name: tmp}}},
		sefl.Deallocate{LV: sefl.Meta{Name: tmp}, Size: a.Size},
	}
}

func ipMirror(buggy bool) Def {
	kind := "IPMirror"
	if buggy {
		kind = "IPMirrorBuggy"
	}
	return Def{
		Kind: kind, NumIn: 1, NumOut: 1,
		Model: func(e *core.Element) {
			var is []sefl.Instr
			is = append(is, swapFields(sefl.IPSrc, sefl.IPDst, "mirror-tmp-ip")...)
			if !buggy {
				is = append(is, swapFields(sefl.TcpSrc, sefl.TcpDst, "mirror-tmp-port")...)
			}
			is = append(is, sefl.Forward{Port: 0})
			e.SetInCode(core.WildcardPort, sefl.Seq(is...))
		},
		NewConcrete: func() Concrete {
			// The concrete implementation is always the real one: mirrors
			// both addresses and ports.
			return concreteFunc(func(in int, p *Packet) (int, *Packet, bool) {
				q := p.Clone()
				ip := q.innerIP()
				if ip == nil {
					return 0, nil, false
				}
				ip.Src, ip.Dst = ip.Dst, ip.Src
				if q.TCP != nil {
					q.TCP.Src, q.TCP.Dst = q.TCP.Dst, q.TCP.Src
				}
				return 0, q, true
			})
		},
	}
}

// --- DecIPTTL ---

// decIPTTL decrements the IP TTL and drops packets whose TTL would reach
// zero. The buggy variant (class DecIPTTLBuggy) reproduces the wrap-around
// bug of §8.3: decrement before the check.
func decIPTTL(buggy bool) Def {
	kind := "DecIPTTL"
	if buggy {
		kind = "DecIPTTLBuggy"
	}
	return Def{
		Kind: kind, NumIn: 1, NumOut: 1,
		Model: func(e *core.Element) {
			ttl := sefl.IPTTL
			if buggy {
				// Original (wrong) order: decrement, then constrain > 0;
				// TTL 0 wraps to 255 and is never dropped.
				e.SetInCode(core.WildcardPort, sefl.Seq(
					sefl.Assign{LV: ttl, E: sefl.Sub{A: ref(ttl), B: sefl.C(1)}},
					sefl.Constrain{C: sefl.Ge(ref(ttl), sefl.C(1))},
					sefl.Forward{Port: 0},
				))
				return
			}
			// Fixed order: require TTL >= 1 (packets at 0 are dropped),
			// then decrement.
			e.SetInCode(core.WildcardPort, sefl.Seq(
				sefl.Constrain{C: sefl.Ge(ref(ttl), sefl.C(2))},
				sefl.Assign{LV: ttl, E: sefl.Sub{A: ref(ttl), B: sefl.C(1)}},
				sefl.Forward{Port: 0},
			))
		},
		NewConcrete: func() Concrete {
			return concreteFunc(func(in int, p *Packet) (int, *Packet, bool) {
				q := p.Clone()
				ip := q.innerIP()
				if ip == nil {
					return 0, nil, false
				}
				if ip.TTL <= 1 {
					return 0, nil, false
				}
				ip.TTL--
				return 0, q, true
			})
		},
	}
}

// --- HostEtherFilter ---

// hostEtherFilter passes only frames destined to the host's MAC address.
// The buggy variant (class HostEtherFilterBuggy) checks the ethertype field
// instead, the bug from §8.3.
func hostEtherFilter(mac string, buggy bool) Def {
	kind := "HostEtherFilter"
	if buggy {
		kind = "HostEtherFilterBuggy"
	}
	macVal := sefl.MACToNumber(mac)
	return Def{
		Kind: kind, NumIn: 1, NumOut: 1,
		Model: func(e *core.Element) {
			cond := sefl.Eq(ref(sefl.EtherDst), sefl.CW(macVal, 48))
			if buggy {
				// Wrongly checking the (16-bit) ethertype field.
				cond = sefl.Eq(ref(sefl.EtherProto), sefl.CW(macVal&0xffff, 16))
			}
			e.SetInCode(core.WildcardPort, sefl.Seq(
				sefl.Constrain{C: cond},
				sefl.Forward{Port: 0},
			))
		},
		NewConcrete: func() Concrete {
			return concreteFunc(func(in int, p *Packet) (int, *Packet, bool) {
				if p.Ether == nil || p.Ether.Dst != macVal {
					return 0, nil, false
				}
				return 0, p.Clone(), true
			})
		},
	}
}

// --- IPClassifier ---

// filter is one IPClassifier/IPFilter pattern, a conjunction of primitive
// tests.
type filter struct {
	Proto   *uint64 // IP protocol
	SrcHost *uint64
	DstHost *uint64
	SrcPort *uint64
	DstPort *uint64
}

// cond lowers the filter to a SEFL condition.
func (f filter) cond() sefl.Cond {
	var cs []sefl.Cond
	if f.Proto != nil {
		cs = append(cs, sefl.Eq(ref(sefl.IPProto), sefl.CW(*f.Proto, 8)))
	}
	if f.SrcHost != nil {
		cs = append(cs, sefl.Eq(ref(sefl.IPSrc), sefl.CW(*f.SrcHost, 32)))
	}
	if f.DstHost != nil {
		cs = append(cs, sefl.Eq(ref(sefl.IPDst), sefl.CW(*f.DstHost, 32)))
	}
	if f.SrcPort != nil {
		cs = append(cs, sefl.Eq(ref(sefl.TcpSrc), sefl.CW(*f.SrcPort, 16)))
	}
	if f.DstPort != nil {
		cs = append(cs, sefl.Eq(ref(sefl.TcpDst), sefl.CW(*f.DstPort, 16)))
	}
	if len(cs) == 0 {
		return sefl.CBool(true)
	}
	return sefl.AndC(cs...)
}

// matches evaluates the filter on a concrete packet.
func (f filter) matches(p *Packet) bool {
	ip := p.innerIP()
	if ip == nil {
		return false
	}
	if f.Proto != nil && ip.Proto != *f.Proto {
		return false
	}
	if f.SrcHost != nil && ip.Src != *f.SrcHost {
		return false
	}
	if f.DstHost != nil && ip.Dst != *f.DstHost {
		return false
	}
	if f.SrcPort != nil && (p.TCP == nil || p.TCP.Src != *f.SrcPort) {
		return false
	}
	if f.DstPort != nil && (p.TCP == nil || p.TCP.Dst != *f.DstPort) {
		return false
	}
	return true
}

// ipClassifier sends a packet to the output of the first filter it matches;
// non-matching packets are dropped (Click semantics when no trailing "-").
func ipClassifier(filters []filter) Def {
	return Def{
		Kind: "IPClassifier", NumIn: 1, NumOut: len(filters),
		Model: func(e *core.Element) {
			code := sefl.Instr(sefl.Fail{Msg: "IPClassifier: no filter matched"})
			for i := len(filters) - 1; i >= 0; i-- {
				code = sefl.If{
					C:    filters[i].cond(),
					Then: sefl.Forward{Port: i},
					Else: code,
				}
			}
			e.SetInCode(core.WildcardPort, code)
		},
		NewConcrete: func() Concrete {
			return concreteFunc(func(in int, p *Packet) (int, *Packet, bool) {
				for i, f := range filters {
					if f.matches(p) {
						return i, p.Clone(), true
					}
				}
				return 0, nil, false
			})
		},
	}
}

// --- IPRewriter (stateful firewall / NAT core) ---

// ipRewriter models the Click element behind stateful functionality: the
// forward direction (input 0) records the flow and passes it to output 0;
// the reverse direction (input 1) checks the packet against both mapping
// directions — traffic matching the *forward* mapping exits output 0 again
// (this is what creates the Fig. 9 cycle when src==dst), traffic matching
// the reverse mapping exits output 1, anything else is dropped.
func ipRewriter() Def {
	fwd := func(n string) sefl.Meta { return sefl.Meta{Name: n, Local: true} }
	return Def{
		Kind: "IPRewriter", NumIn: 2, NumOut: 2,
		Model: func(e *core.Element) {
			e.SetInCode(0, sefl.Seq(
				sefl.Allocate{LV: fwd("rw-src"), Size: 32},
				sefl.Allocate{LV: fwd("rw-dst"), Size: 32},
				sefl.Allocate{LV: fwd("rw-sport"), Size: 16},
				sefl.Allocate{LV: fwd("rw-dport"), Size: 16},
				sefl.Assign{LV: fwd("rw-src"), E: ref(sefl.IPSrc)},
				sefl.Assign{LV: fwd("rw-dst"), E: ref(sefl.IPDst)},
				sefl.Assign{LV: fwd("rw-sport"), E: ref(sefl.TcpSrc)},
				sefl.Assign{LV: fwd("rw-dport"), E: ref(sefl.TcpDst)},
				sefl.Forward{Port: 0},
			))
			matchFwd := sefl.AndC(
				sefl.Eq(ref(sefl.IPSrc), sefl.Ref{LV: fwd("rw-src")}),
				sefl.Eq(ref(sefl.IPDst), sefl.Ref{LV: fwd("rw-dst")}),
				sefl.Eq(ref(sefl.TcpSrc), sefl.Ref{LV: fwd("rw-sport")}),
				sefl.Eq(ref(sefl.TcpDst), sefl.Ref{LV: fwd("rw-dport")}),
			)
			matchRev := sefl.AndC(
				sefl.Eq(ref(sefl.IPSrc), sefl.Ref{LV: fwd("rw-dst")}),
				sefl.Eq(ref(sefl.IPDst), sefl.Ref{LV: fwd("rw-src")}),
				sefl.Eq(ref(sefl.TcpSrc), sefl.Ref{LV: fwd("rw-dport")}),
				sefl.Eq(ref(sefl.TcpDst), sefl.Ref{LV: fwd("rw-sport")}),
			)
			e.SetInCode(1, sefl.If{
				C:    matchFwd,
				Then: sefl.Forward{Port: 0},
				Else: sefl.If{
					C:    matchRev,
					Then: sefl.Forward{Port: 1},
					Else: sefl.Fail{Msg: "IPRewriter: no mapping"},
				},
			})
		},
		NewConcrete: func() Concrete {
			return &concreteRewriter{}
		},
	}
}

type flowKey struct {
	src, dst     uint64
	sport, dport uint64
}

type concreteRewriter struct {
	flows map[flowKey]bool
}

func (r *concreteRewriter) Process(in int, p *Packet) (int, *Packet, bool) {
	ip := p.innerIP()
	if ip == nil || p.TCP == nil {
		return 0, nil, false
	}
	k := flowKey{ip.Src, ip.Dst, p.TCP.Src, p.TCP.Dst}
	if in == 0 {
		if r.flows == nil {
			r.flows = make(map[flowKey]bool)
		}
		r.flows[k] = true
		return 0, p.Clone(), true
	}
	if r.flows[k] {
		return 0, p.Clone(), true // matches forward mapping
	}
	rev := flowKey{ip.Dst, ip.Src, p.TCP.Dst, p.TCP.Src}
	if r.flows[rev] {
		return 1, p.Clone(), true
	}
	return 0, nil, false
}

// --- Framing and encapsulation elements ---

// etherEncap adds an Ethernet header.
func etherEncap(etherType uint64, src, dst string) Def {
	return Def{
		Kind: "EtherEncap", NumIn: 1, NumOut: 1,
		Model: func(e *core.Element) {
			e.SetInCode(core.WildcardPort, sefl.Seq(
				models.PushEthernet(src, dst, etherType),
				sefl.Forward{Port: 0},
			))
		},
		NewConcrete: func() Concrete {
			s, d := sefl.MACToNumber(src), sefl.MACToNumber(dst)
			return concreteFunc(func(in int, p *Packet) (int, *Packet, bool) {
				q := p.Clone()
				q.Ether = &EtherHdr{Dst: d, Src: s, Proto: etherType}
				return 0, q, true
			})
		},
	}
}

// stripEther removes the Ethernet header (Click's Strip(14) on an Ethernet
// frame).
func stripEther() Def {
	return Def{
		Kind: "Strip", NumIn: 1, NumOut: 1,
		Model: func(e *core.Element) {
			e.SetInCode(core.WildcardPort, sefl.Seq(
				models.StripEthernet(),
				sefl.Forward{Port: 0},
			))
		},
		NewConcrete: func() Concrete {
			return concreteFunc(func(in int, p *Packet) (int, *Packet, bool) {
				q := p.Clone()
				q.Ether = nil
				return 0, q, true
			})
		},
	}
}

// checkIPHeader validates basic IPv4 header sanity (modeled as a minimum
// length check).
func checkIPHeader() Def {
	return Def{
		Kind: "CheckIPHeader", NumIn: 1, NumOut: 1,
		Model: func(e *core.Element) {
			e.SetInCode(core.WildcardPort, sefl.Seq(
				sefl.Constrain{C: sefl.Ge(ref(sefl.IPLen), sefl.C(20))},
				sefl.Forward{Port: 0},
			))
		},
		NewConcrete: func() Concrete {
			return concreteFunc(func(in int, p *Packet) (int, *Packet, bool) {
				ip := p.innerIP()
				if ip == nil || ip.Len < 20 {
					return 0, nil, false
				}
				return 0, p.Clone(), true
			})
		},
	}
}

// discard drops every packet.
func discard() Def {
	return Def{
		Kind: "Discard", NumIn: 1, NumOut: 0,
		Model: func(e *core.Element) {
			e.SetInCode(core.WildcardPort, sefl.Fail{Msg: "discarded"})
		},
		NewConcrete: func() Concrete {
			return concreteFunc(func(in int, p *Packet) (int, *Packet, bool) {
				return 0, nil, false
			})
		},
	}
}

// queue passes packets through unchanged (timing is irrelevant statically).
func queue() Def {
	return Def{
		Kind: "Queue", NumIn: 1, NumOut: 1,
		Model: func(e *core.Element) {
			e.SetInCode(core.WildcardPort, sefl.Forward{Port: 0})
		},
		NewConcrete: func() Concrete {
			return concreteFunc(func(in int, p *Packet) (int, *Packet, bool) {
				return 0, p.Clone(), true
			})
		},
	}
}

// tunnelMACSrc/Dst are the constant addresses tunnel endpoints re-frame
// packets with (a tunnel hop is a fresh L2 segment).
const (
	tunnelMACSrc = "02:00:00:00:00:01"
	tunnelMACDst = "02:00:00:00:00:02"
)

// ipEncap performs IP-in-IP encapsulation with the given endpoints. Like
// real tunnel ingress, the element re-frames a framed packet: the old
// Ethernet header is stripped and a fresh one pushed below the new outer IP
// header. A packet with no Ethernet header (after a Strip) leaves without
// one, in the model (models.TunnelEntry) and the implementation alike.
func ipEncap(src, dst string) Def {
	return Def{
		Kind: "IPEncap", NumIn: 1, NumOut: 1,
		Model: func(e *core.Element) {
			models.TunnelEntry(e, src, dst, tunnelMACSrc, tunnelMACDst)
		},
		NewConcrete: func() Concrete {
			s, d := sefl.IPToNumber(src), sefl.IPToNumber(dst)
			return concreteFunc(func(in int, p *Packet) (int, *Packet, bool) {
				if p.innerIP() == nil {
					return 0, nil, false
				}
				q := p.Clone()
				outer := &IPHdr{Len: q.innerIP().Len + 20, TTL: 64, Proto: models.ProtoIPIP, Src: s, Dst: d}
				q.IP = append([]*IPHdr{outer}, q.IP...)
				if q.Ether != nil {
					q.Ether = &EtherHdr{
						Src:   sefl.MACToNumber(tunnelMACSrc),
						Dst:   sefl.MACToNumber(tunnelMACDst),
						Proto: sefl.EtherTypeIPv4,
					}
				}
				return 0, q, true
			})
		},
	}
}

// ipDecap removes one layer of IP-in-IP encapsulation, re-framing like
// ipEncap.
func ipDecap() Def {
	return Def{
		Kind: "IPDecap", NumIn: 1, NumOut: 1,
		Model: func(e *core.Element) {
			models.TunnelExit(e, tunnelMACSrc, tunnelMACDst)
		},
		NewConcrete: func() Concrete {
			return concreteFunc(func(in int, p *Packet) (int, *Packet, bool) {
				if len(p.IP) < 2 || p.outerIP().Proto != models.ProtoIPIP {
					return 0, nil, false
				}
				q := p.Clone()
				q.IP = q.IP[1:]
				if q.Ether != nil {
					q.Ether = &EtherHdr{
						Src:   sefl.MACToNumber(tunnelMACSrc),
						Dst:   sefl.MACToNumber(tunnelMACDst),
						Proto: sefl.EtherTypeIPv4,
					}
				}
				return 0, q, true
			})
		},
	}
}

// instantiate registers a Def as a named element in a network and returns
// its concrete twin.
func instantiate(net *core.Network, name string, d Def) (*core.Element, Concrete) {
	e := net.AddElement(name, d.Kind, d.NumIn, d.NumOut)
	d.Model(e)
	var c Concrete
	if d.NewConcrete != nil {
		c = d.NewConcrete()
	}
	return e, c
}
