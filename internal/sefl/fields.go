package sefl

import (
	"fmt"
	"strconv"
	"strings"
)

// Canonical tag names. Packets always carry Start and End; layer tags are
// created as the packet moves through the modeled stack (paper Fig. 6).
const (
	TagStart = "Start"
	TagEnd   = "End"
	TagL2    = "L2"
	TagVLAN  = "VLAN"
	TagL3    = "L3"
	TagL4    = "L4"
	tagPay   = "PAYLOAD"
)

// Layer sizes in bits.
const (
	L2Bits   = 112 // dst(48) src(48) ethertype(16)
	VLANBits = 32  // TPID-less model: id(16, low 12 significant) + inner ethertype(16)
	L3Bits   = 160 // IPv4 without options
	l4Bits   = 160 // TCP without options (options modeled as metadata)
	udpBits  = 64
	payBits  = 64 // payload modeled as one opaque 64-bit value
)

// MACWidth is the width of an Ethernet address field.
const MACWidth = 48

// EtherType and IP protocol constants used across models.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeVLAN = 0x8100
	ProtoICMP     = 1
	ProtoTCP      = 6
	ProtoUDP      = 17
)

// L2 fields (relative to Tag("L2")).
var (
	EtherDst   = Hdr{Off: FromTag(TagL2, 0), Size: 48, Name: "EtherDst"}
	EtherSrc   = Hdr{Off: FromTag(TagL2, 48), Size: 48, Name: "EtherSrc"}
	EtherProto = Hdr{Off: FromTag(TagL2, 96), Size: 16, Name: "EtherProto"}
)

// VLAN fields (relative to Tag("VLAN")).
var (
	VlanID    = Hdr{Off: FromTag(TagVLAN, 0), Size: 16, Name: "VlanID"}
	VlanProto = Hdr{Off: FromTag(TagVLAN, 16), Size: 16, Name: "VlanProto"}
)

// L3 (IPv4) fields (relative to Tag("L3")). Offsets follow the wire layout
// of an option-less IPv4 header.
var (
	IPLen    = Hdr{Off: FromTag(TagL3, 16), Size: 16, Name: "IPLen"}
	IPID     = Hdr{Off: FromTag(TagL3, 32), Size: 16, Name: "IPID"}
	IPFlags  = Hdr{Off: FromTag(TagL3, 48), Size: 16, Name: "IPFlags"} // flags+fragment offset
	IPTTL    = Hdr{Off: FromTag(TagL3, 64), Size: 8, Name: "IPTTL"}
	IPProto  = Hdr{Off: FromTag(TagL3, 72), Size: 8, Name: "IPProto"}
	IPChksum = Hdr{Off: FromTag(TagL3, 80), Size: 16, Name: "IPChksum"}
	IPSrc    = Hdr{Off: FromTag(TagL3, 96), Size: 32, Name: "IPSrc"}
	IPDst    = Hdr{Off: FromTag(TagL3, 128), Size: 32, Name: "IPDst"}
)

// L4 (TCP) fields (relative to Tag("L4")).
var (
	TcpSrc   = Hdr{Off: FromTag(TagL4, 0), Size: 16, Name: "TcpSrc"}
	TcpDst   = Hdr{Off: FromTag(TagL4, 16), Size: 16, Name: "TcpDst"}
	TcpSeq   = Hdr{Off: FromTag(TagL4, 32), Size: 32, Name: "TcpSeq"}
	TcpAck   = Hdr{Off: FromTag(TagL4, 64), Size: 32, Name: "TcpAck"}
	tcpFlags = Hdr{Off: FromTag(TagL4, 96), Size: 16, Name: "TcpFlags"} // dataoff+flags
	tcpWin   = Hdr{Off: FromTag(TagL4, 112), Size: 16, Name: "TcpWin"}
)

// L4 (UDP) fields (relative to Tag("L4")).
var (
	udpSrc = Hdr{Off: FromTag(TagL4, 0), Size: 16, Name: "UdpSrc"}
	udpDst = Hdr{Off: FromTag(TagL4, 16), Size: 16, Name: "UdpDst"}
	udpLen = Hdr{Off: FromTag(TagL4, 32), Size: 16, Name: "UdpLen"}
)

// TcpPayload is the opaque payload value (relative to Tag("PAYLOAD")).
var TcpPayload = Hdr{Off: FromTag(tagPay, 0), Size: 64, Name: "TcpPayload"}

// IPToNumber parses a dotted-quad IPv4 address into its numeric value. It
// panics on malformed input: model-construction code treats bad literals as
// programming errors.
func IPToNumber(s string) uint64 {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		panic("sefl: bad IPv4 literal " + s)
	}
	var v uint64
	for _, p := range parts {
		b, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			panic("sefl: bad IPv4 literal " + s + ": " + err.Error())
		}
		v = v<<8 | b
	}
	return v
}

// NumberToIP renders a numeric IPv4 address as a dotted quad.
func NumberToIP(v uint64) string {
	return fmt.Sprintf("%d.%d.%d.%d", v>>24&0xff, v>>16&0xff, v>>8&0xff, v&0xff)
}

// MACToNumber parses a colon-separated MAC address into its numeric value.
func MACToNumber(s string) uint64 {
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		panic("sefl: bad MAC literal " + s)
	}
	var v uint64
	for _, p := range parts {
		b, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			panic("sefl: bad MAC literal " + s + ": " + err.Error())
		}
		v = v<<8 | b
	}
	return v
}

// NumberToMAC renders a numeric MAC address in colon-separated hex.
func NumberToMAC(v uint64) string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		v>>40&0xff, v>>32&0xff, v>>24&0xff, v>>16&0xff, v>>8&0xff, v&0xff)
}

// IP is shorthand for a 32-bit literal from a dotted quad.
func IP(s string) Num { return Num{V: IPToNumber(s), W: 32} }

// MAC is shorthand for a 48-bit literal from a colon-separated MAC.
func MAC(s string) Num { return Num{V: MACToNumber(s), W: 48} }

// --- Packet templates ---
//
// SymNet "starts execution by creating an initial empty packet ... and then
// executes code to create a symbolic packet of the given type". These
// builders return that code.

// allocAssign allocates a header field and assigns it an expression.
func allocAssign(h Hdr, e Expr) []Instr {
	return []Instr{Allocate{LV: h, Size: h.Size}, Assign{LV: h, E: e}}
}

// symField allocates a header field holding a fresh symbolic value.
func symField(h Hdr) []Instr {
	return allocAssign(h, Symbolic{W: h.Size, Name: h.Name})
}

// newEthernetHeader returns code allocating symbolic L2 fields at the L2 tag
// (which must have been created already).
func newEthernetHeader() Instr {
	var is []Instr
	is = append(is, symField(EtherDst)...)
	is = append(is, symField(EtherSrc)...)
	is = append(is, allocAssign(EtherProto, CW(EtherTypeIPv4, 16))...)
	return Seq(is...)
}

// newIPv4Header returns code allocating symbolic L3 fields at the L3 tag.
// proto initializes the protocol field (pass Symbolic for a fully symbolic
// packet); each field is assigned exactly once so its first recorded value
// is the injected one.
func newIPv4Header(proto Expr) Instr {
	var is []Instr
	is = append(is, symField(IPLen)...)
	is = append(is, symField(IPID)...)
	is = append(is, allocAssign(IPFlags, CW(0, 16))...)
	is = append(is, symField(IPTTL)...)
	is = append(is, allocAssign(IPProto, proto)...)
	is = append(is, allocAssign(IPChksum, CW(0, 16))...)
	is = append(is, symField(IPSrc)...)
	is = append(is, symField(IPDst)...)
	return Seq(is...)
}

// newTCPHeader returns code allocating symbolic L4 TCP fields plus the
// opaque payload.
func newTCPHeader() Instr {
	var is []Instr
	is = append(is, symField(TcpSrc)...)
	is = append(is, symField(TcpDst)...)
	is = append(is, symField(TcpSeq)...)
	is = append(is, symField(TcpAck)...)
	is = append(is, symField(tcpFlags)...)
	is = append(is, symField(tcpWin)...)
	is = append(is, symField(TcpPayload)...)
	return Seq(is...)
}

// newUDPHeader returns code allocating symbolic L4 UDP fields.
func newUDPHeader() Instr {
	var is []Instr
	is = append(is, symField(udpSrc)...)
	is = append(is, symField(udpDst)...)
	is = append(is, symField(udpLen)...)
	return Seq(is...)
}

// NewTCPPacket returns injection code for a fully symbolic
// Ethernet+IPv4+TCP packet: tags Start/L2/L3/L4/PAYLOAD/End plus symbolic
// fields, with IPProto pinned to TCP and EtherProto to IPv4.
func NewTCPPacket() Instr {
	return Seq(
		CreateTag{Name: TagStart, E: C(0)},
		CreateTag{Name: TagL2, E: TagVal{Tag: TagStart}},
		CreateTag{Name: TagL3, E: TagVal{Tag: TagL2, Rel: L2Bits}},
		CreateTag{Name: TagL4, E: TagVal{Tag: TagL3, Rel: L3Bits}},
		CreateTag{Name: tagPay, E: TagVal{Tag: TagL4, Rel: l4Bits}},
		CreateTag{Name: TagEnd, E: TagVal{Tag: tagPay, Rel: payBits}},
		newEthernetHeader(),
		newIPv4Header(CW(ProtoTCP, 8)),
		newTCPHeader(),
	)
}

// NewUDPPacket returns injection code for a symbolic Ethernet+IPv4+UDP
// packet.
func NewUDPPacket() Instr {
	return Seq(
		CreateTag{Name: TagStart, E: C(0)},
		CreateTag{Name: TagL2, E: TagVal{Tag: TagStart}},
		CreateTag{Name: TagL3, E: TagVal{Tag: TagL2, Rel: L2Bits}},
		CreateTag{Name: TagL4, E: TagVal{Tag: TagL3, Rel: L3Bits}},
		CreateTag{Name: tagPay, E: TagVal{Tag: TagL4, Rel: udpBits}},
		CreateTag{Name: TagEnd, E: TagVal{Tag: tagPay, Rel: payBits}},
		newEthernetHeader(),
		newIPv4Header(CW(ProtoUDP, 8)),
		newUDPHeader(),
	)
}

// NewIPPacket returns injection code for a symbolic Ethernet+IPv4 packet
// with no transport header (the L4 tag stays unset, so L4 accesses fail —
// the paper's layering safety).
func NewIPPacket() Instr {
	return Seq(
		CreateTag{Name: TagStart, E: C(0)},
		CreateTag{Name: TagL2, E: TagVal{Tag: TagStart}},
		CreateTag{Name: TagL3, E: TagVal{Tag: TagL2, Rel: L2Bits}},
		CreateTag{Name: TagEnd, E: TagVal{Tag: TagL3, Rel: L3Bits}},
		newEthernetHeader(),
		newIPv4Header(Symbolic{W: 8, Name: "IPProto"}),
	)
}

// NewEthernetPacket returns injection code for a bare symbolic L2 frame
// (EtherProto symbolic too).
func NewEthernetPacket() Instr {
	var is []Instr
	is = append(is,
		CreateTag{Name: TagStart, E: C(0)},
		CreateTag{Name: TagL2, E: TagVal{Tag: TagStart}},
		CreateTag{Name: TagEnd, E: TagVal{Tag: TagL2, Rel: L2Bits}},
	)
	is = append(is, symField(EtherDst)...)
	is = append(is, symField(EtherSrc)...)
	is = append(is, symField(EtherProto)...)
	return Seq(is...)
}
