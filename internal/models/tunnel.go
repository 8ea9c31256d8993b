package models

import (
	"symnet/internal/core"
	"symnet/internal/sefl"
)

// ipv4HeaderFields lists the (relative offset, size) pairs of the modeled
// IPv4 header; used to allocate/deallocate whole headers during
// encapsulation.
var ipv4HeaderFields = []struct {
	rel  int64
	size int
}{
	{16, 16},  // IPLen
	{32, 16},  // IPID
	{48, 16},  // IPFlags
	{64, 8},   // IPTTL
	{72, 8},   // IPProto
	{80, 16},  // IPChksum
	{96, 32},  // IPSrc
	{128, 32}, // IPDst
}

// etherHeaderFields lists the modeled Ethernet header fields.
var etherHeaderFields = []struct {
	rel  int64
	size int
}{
	{0, 48},  // EtherDst
	{48, 48}, // EtherSrc
	{96, 16}, // EtherProto
}

// StripEthernet returns code removing the L2 header (fields + tag), the
// first step of any L3 tunnel-ingress pipeline.
func StripEthernet() sefl.Instr {
	var is []sefl.Instr
	for _, f := range etherHeaderFields {
		is = append(is, sefl.Deallocate{LV: sefl.Hdr{Off: sefl.FromTag(sefl.TagL2, f.rel), Size: f.size}, Size: f.size})
	}
	is = append(is, sefl.DestroyTag{Name: sefl.TagL2})
	return sefl.Seq(is...)
}

// PushEthernet returns code adding a fresh L2 header directly below the
// current L3 tag, with the given addresses.
func PushEthernet(src, dst string, etherType uint64) sefl.Instr {
	is := []sefl.Instr{
		sefl.CreateTag{Name: sefl.TagL2, E: sefl.TagVal{Tag: sefl.TagL3, Rel: -int64(sefl.L2Bits)}},
	}
	is = append(is,
		sefl.Allocate{LV: sefl.EtherDst, Size: 48},
		sefl.Assign{LV: sefl.EtherDst, E: sefl.MAC(dst)},
		sefl.Allocate{LV: sefl.EtherSrc, Size: 48},
		sefl.Assign{LV: sefl.EtherSrc, E: sefl.MAC(src)},
		sefl.Allocate{LV: sefl.EtherProto, Size: 16},
		sefl.Assign{LV: sefl.EtherProto, E: sefl.CW(etherType, 16)},
	)
	return sefl.Seq(is...)
}

// ProtoIPIP is the IP protocol number for IP-in-IP encapsulation.
const ProtoIPIP = 4

// IPinIPEncap returns code performing IP-in-IP encapsulation: a new outer
// IPv4 header is allocated 160 bits below the inner one (the inner packet
// keeps its offsets, matching the paper's Fig. 6), with the given tunnel
// endpoints. The inner L3 tag is masked by the new one; the L4 tag is left
// untouched.
func IPinIPEncap(tunnelSrc, tunnelDst string) sefl.Instr {
	is := []sefl.Instr{
		// Remember the inner total length: the outer header carries
		// inner + 20 bytes, which is what surfaces MTU blackholes (§8.4).
		sefl.Allocate{LV: sefl.Meta{Name: "ipip-inner-len"}, Size: 16},
		sefl.Assign{LV: sefl.Meta{Name: "ipip-inner-len"}, E: sefl.Ref{LV: sefl.IPLen}},
		sefl.CreateTag{Name: sefl.TagL3, E: sefl.TagVal{Tag: sefl.TagL3, Rel: -int64(sefl.L3Bits)}},
	}
	for _, f := range ipv4HeaderFields {
		is = append(is, sefl.Allocate{LV: sefl.Hdr{Off: sefl.FromTag(sefl.TagL3, f.rel), Size: f.size}, Size: f.size})
	}
	is = append(is,
		sefl.Assign{LV: sefl.IPLen, E: sefl.Add{A: sefl.Ref{LV: sefl.Meta{Name: "ipip-inner-len"}}, B: sefl.C(20)}},
		sefl.Deallocate{LV: sefl.Meta{Name: "ipip-inner-len"}, Size: 16},
		sefl.Assign{LV: sefl.IPID, E: sefl.Symbolic{W: 16, Name: "outer-id"}},
		sefl.Assign{LV: sefl.IPFlags, E: sefl.CW(0, 16)},
		sefl.Assign{LV: sefl.IPTTL, E: sefl.CW(64, 8)},
		sefl.Assign{LV: sefl.IPProto, E: sefl.CW(ProtoIPIP, 8)},
		sefl.Assign{LV: sefl.IPChksum, E: sefl.CW(0, 16)},
		sefl.Assign{LV: sefl.IPSrc, E: sefl.IP(tunnelSrc)},
		sefl.Assign{LV: sefl.IPDst, E: sefl.IP(tunnelDst)},
	)
	return sefl.Seq(is...)
}

// IPinIPDecap returns code removing the outer IPv4 header: it checks the
// outer protocol is IP-in-IP, deallocates the outer fields and destroys the
// outer L3 tag, exposing the inner header again. Mis-layered packets fail
// with a memory-safety error, which is how the paper catches encapsulation
// bugs.
func IPinIPDecap() sefl.Instr {
	is := []sefl.Instr{
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPProto}, sefl.C(ProtoIPIP))},
	}
	for _, f := range ipv4HeaderFields {
		is = append(is, sefl.Deallocate{LV: sefl.Hdr{Off: sefl.FromTag(sefl.TagL3, f.rel), Size: f.size}, Size: f.size})
	}
	is = append(is, sefl.DestroyTag{Name: sefl.TagL3})
	return sefl.Seq(is...)
}

// TunnelEntry installs an IP-in-IP tunnel-entry element: the outer IP
// header is pushed, and a packet that came framed (an L2 tag) is re-framed:
// its Ethernet header is stripped first and a fresh one added after. A
// packet with no L2 header (after a Click Strip, say) leaves without one.
func TunnelEntry(e *core.Element, tunnelSrc, tunnelDst, macSrc, macDst string) {
	e.SetInCode(core.WildcardPort, sefl.Seq(
		sefl.If{
			C: sefl.TagPresent{Tag: sefl.TagL2},
			Then: sefl.Seq(
				StripEthernet(),
				IPinIPEncap(tunnelSrc, tunnelDst),
				PushEthernet(macSrc, macDst, sefl.EtherTypeIPv4),
			),
			Else: IPinIPEncap(tunnelSrc, tunnelDst),
		},
		sefl.Forward{Port: 0},
	))
}

// TunnelExit installs the matching tunnel-exit element, which re-frames
// only a packet that came framed, as TunnelEntry does.
func TunnelExit(e *core.Element, macSrc, macDst string) {
	e.SetInCode(core.WildcardPort, sefl.Seq(
		sefl.If{
			C:    sefl.TagPresent{Tag: sefl.TagL2},
			Then: sefl.Seq(StripEthernet(), IPinIPDecap(), PushEthernet(macSrc, macDst, sefl.EtherTypeIPv4)),
			Else: IPinIPDecap(),
		},
		sefl.Forward{Port: 0},
	))
}

// --- VLAN tagging ---
//
// The VLAN shim occupies the 32 bits directly beneath the network header.
// Because the Ethernet header of an untagged packet ends exactly at L3,
// inserting a shim requires re-framing: strip Ethernet, push the shim, push
// a new Ethernet header below it — exactly how switching hardware rewrites
// frames.

// VLANWrap returns code tagging the frame with a VLAN id: the inner
// ethertype is preserved in the shim, and the new outer Ethernet header
// carries ethertype 0x8100.
func VLANWrap(vlan uint64, macSrc, macDst string) sefl.Instr {
	return sefl.Seq(
		// Remember the inner ethertype before the L2 header disappears.
		sefl.Allocate{LV: sefl.Meta{Name: "vlan-inner-proto"}, Size: 16},
		sefl.Assign{LV: sefl.Meta{Name: "vlan-inner-proto"}, E: sefl.Ref{LV: sefl.EtherProto}},
		StripEthernet(),
		sefl.CreateTag{Name: sefl.TagVLAN, E: sefl.TagVal{Tag: sefl.TagL3, Rel: -int64(sefl.VLANBits)}},
		sefl.Allocate{LV: sefl.VlanID, Size: 16},
		sefl.Assign{LV: sefl.VlanID, E: sefl.CW(vlan, 16)},
		sefl.Allocate{LV: sefl.VlanProto, Size: 16},
		sefl.Assign{LV: sefl.VlanProto, E: sefl.Ref{LV: sefl.Meta{Name: "vlan-inner-proto"}}},
		sefl.Deallocate{LV: sefl.Meta{Name: "vlan-inner-proto"}, Size: 16},
		// New Ethernet header below the shim, marked as VLAN-tagged.
		sefl.CreateTag{Name: sefl.TagL2, E: sefl.TagVal{Tag: sefl.TagVLAN, Rel: -int64(sefl.L2Bits)}},
		sefl.Allocate{LV: sefl.EtherDst, Size: 48},
		sefl.Assign{LV: sefl.EtherDst, E: sefl.MAC(macDst)},
		sefl.Allocate{LV: sefl.EtherSrc, Size: 48},
		sefl.Assign{LV: sefl.EtherSrc, E: sefl.MAC(macSrc)},
		sefl.Allocate{LV: sefl.EtherProto, Size: 16},
		sefl.Assign{LV: sefl.EtherProto, E: sefl.CW(sefl.EtherTypeVLAN, 16)},
	)
}

// VLANUnwrap returns code removing the VLAN shim. It fails when the frame
// is not actually tagged — the behaviour that exposes the paper's §8.4
// "missing VLAN tagging" bug, where R1 drops frames the proxy forgot to
// re-tag.
func VLANUnwrap(macSrc, macDst string) sefl.Instr {
	return sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherProto}, sefl.C(uint64(sefl.EtherTypeVLAN)))},
		StripEthernet(),
		// Recover the inner ethertype from the shim, then drop the shim.
		sefl.Allocate{LV: sefl.Meta{Name: "vlan-inner-proto"}, Size: 16},
		sefl.Assign{LV: sefl.Meta{Name: "vlan-inner-proto"}, E: sefl.Ref{LV: sefl.VlanProto}},
		sefl.Deallocate{LV: sefl.VlanProto, Size: 16},
		sefl.Deallocate{LV: sefl.VlanID, Size: 16},
		sefl.DestroyTag{Name: sefl.TagVLAN},
		// Re-frame below L3 with the recovered ethertype.
		sefl.CreateTag{Name: sefl.TagL2, E: sefl.TagVal{Tag: sefl.TagL3, Rel: -int64(sefl.L2Bits)}},
		sefl.Allocate{LV: sefl.EtherDst, Size: 48},
		sefl.Assign{LV: sefl.EtherDst, E: sefl.MAC(macDst)},
		sefl.Allocate{LV: sefl.EtherSrc, Size: 48},
		sefl.Assign{LV: sefl.EtherSrc, E: sefl.MAC(macSrc)},
		sefl.Allocate{LV: sefl.EtherProto, Size: 16},
		sefl.Assign{LV: sefl.EtherProto, E: sefl.Ref{LV: sefl.Meta{Name: "vlan-inner-proto"}}},
		sefl.Deallocate{LV: sefl.Meta{Name: "vlan-inner-proto"}, Size: 16},
	)
}
