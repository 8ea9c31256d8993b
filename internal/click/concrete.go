// Package click models a large subset of the Click modular router's
// elements in SEFL (paper §7.1), parses Click configuration files into
// SymNet networks, and — uniquely — pairs every element model with a
// runnable *concrete* implementation. The concrete side stands in for the
// paper's real Click deployments and ASA hardware in the automated testing
// framework of §8.3: symbolic paths are solved into concrete packets, run
// through the concrete pipeline, and compared.
package click

import "fmt"

// Packet is a concrete packet, shaped like the SEFL packet templates.
type Packet struct {
	Ether   *EtherHdr
	VLAN    *VLANHdr
	IP      []*IPHdr // encapsulation stack; IP[0] is the outermost header
	TCP     *TCPHdr
	Payload uint64
}

// EtherHdr is a concrete Ethernet header.
type EtherHdr struct {
	Dst, Src uint64
	Proto    uint64
}

// VLANHdr is a concrete VLAN shim.
type VLANHdr struct {
	ID    uint64
	Proto uint64
}

// IPHdr is a concrete IPv4 header.
type IPHdr struct {
	Len, ID, Flags uint64
	TTL, Proto     uint64
	Chksum         uint64
	Src, Dst       uint64
}

// TCPHdr is a concrete TCP header.
type TCPHdr struct {
	Src, Dst   uint64
	Seq, Ack   uint64
	Flags, Win uint64
	// Options carries decoded option kinds (the TCPOptions element's
	// abstract view); nil when untouched.
	Options []uint64
}

// Clone deep-copies a packet.
func (p *Packet) Clone() *Packet {
	n := &Packet{Payload: p.Payload}
	if p.Ether != nil {
		e := *p.Ether
		n.Ether = &e
	}
	if p.VLAN != nil {
		v := *p.VLAN
		n.VLAN = &v
	}
	for _, ip := range p.IP {
		h := *ip
		n.IP = append(n.IP, &h)
	}
	if p.TCP != nil {
		t := *p.TCP
		t.Options = append([]uint64(nil), p.TCP.Options...)
		n.TCP = &t
	}
	return n
}

// innerIP returns the innermost IP header.
func (p *Packet) innerIP() *IPHdr {
	if len(p.IP) == 0 {
		return nil
	}
	return p.IP[len(p.IP)-1]
}

// outerIP returns the outermost IP header.
func (p *Packet) outerIP() *IPHdr {
	if len(p.IP) == 0 {
		return nil
	}
	return p.IP[0]
}

func (p *Packet) String() string {
	s := ""
	if p.Ether != nil {
		s += fmt.Sprintf("eth[%012x->%012x %04x] ", p.Ether.Src, p.Ether.Dst, p.Ether.Proto)
	}
	if p.VLAN != nil {
		s += fmt.Sprintf("vlan[%d] ", p.VLAN.ID)
	}
	for _, ip := range p.IP {
		s += fmt.Sprintf("ip[%x->%x ttl=%d proto=%d] ", ip.Src, ip.Dst, ip.TTL, ip.Proto)
	}
	if p.TCP != nil {
		s += fmt.Sprintf("tcp[%d->%d]", p.TCP.Src, p.TCP.Dst)
	}
	return s
}

// Concrete is a runnable implementation of a Click element: it consumes a
// packet on an input port and emits it on an output port (or drops it).
// Elements with per-flow state (IPRewriter) keep it across calls, exactly
// like the running code the paper tests against.
type Concrete interface {
	// Process handles one packet. ok=false means the packet was dropped.
	Process(inPort int, p *Packet) (outPort int, out *Packet, ok bool)
}

// concreteFunc adapts a function to the Concrete interface.
type concreteFunc func(inPort int, p *Packet) (int, *Packet, bool)

// Process implements Concrete.
func (f concreteFunc) Process(inPort int, p *Packet) (int, *Packet, bool) {
	return f(inPort, p)
}
