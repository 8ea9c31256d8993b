package datasets

import (
	"symnet/internal/core"
	"symnet/internal/models"
	"symnet/internal/sefl"
)

// SplitTCP builds the Fig. 10 deployment of §8.4: client C behind an access
// point, redirection router R1 steering traffic through the Split-TCP proxy
// P (by rewriting destination MACs), and exit router R2 towards the
// Internet. Options toggle the four documented scenarios.
type SplitTCPConfig struct {
	// MTUDrop makes R1 drop packets larger than 1536 bytes.
	MTUDrop bool
	// Tunnel enables IP-in-IP between R1 and P (the MTU blackhole).
	Tunnel bool
	// ProxyStripsVLAN reproduces the missing-VLAN-tagging bug: P removes
	// the VLAN tag and fails to restore it before pushing frames back.
	ProxyStripsVLAN bool
	// DHCPAppliance makes R2 filter packets whose (EtherSrc, IPSrc) pair
	// does not match the recorded DHCP lease.
	DHCPAppliance bool
	// ProxyRewritesMAC: the proxy replaces the source MAC (always true in
	// the real deployment; exposed to isolate the DHCP finding).
	ProxyRewritesMAC bool
}

// Element and address names used by the Split-TCP scenario.
const (
	splitClientMAC = "02:0c:00:00:00:01"
	splitProxyMAC  = "02:0c:00:00:00:99"
	splitR1MAC     = "02:0c:00:00:00:11"
	splitR2MAC     = "02:0c:00:00:00:22"
)

// NewSplitTCP builds the topology: C -> AP -> R1 -> P -> R2 -> Internet,
// with the return path mirrored at R2 for round-trip checks.
func NewSplitTCP(cfg SplitTCPConfig) *core.Network {
	net := core.NewNetwork()

	// Client and access point: transparent L2 hops.
	ap := net.AddElement("ap", "ap", 2, 2)
	ap.SetInCode(0, sefl.Forward{Port: 0}) // towards R1
	ap.SetInCode(1, sefl.Forward{Port: 1}) // back to client

	// R1: redirection router. Forward direction steers via the proxy by
	// rewriting the destination MAC; optionally drops oversized frames and
	// tunnels towards P.
	r1 := net.AddElement("r1", "router", 3, 3)
	var fwd []sefl.Instr
	switch {
	case cfg.Tunnel:
		// Tunnel towards P: strip Ethernet, encapsulate, re-frame. The MTU
		// check applies to the *encapsulated* packet — the §8.4 blackhole.
		fwd = append(fwd,
			models.StripEthernet(),
			models.IPinIPEncap("10.9.0.1", "10.9.0.2"),
			models.PushEthernet(splitR1MAC, splitProxyMAC, sefl.EtherTypeIPv4),
		)
	case cfg.ProxyStripsVLAN:
		// The deployment carries VLAN-tagged frames between R1 and P.
		fwd = append(fwd, models.VLANWrap(100, splitR1MAC, splitProxyMAC))
	default:
		fwd = append(fwd, sefl.Assign{LV: sefl.EtherDst, E: sefl.MAC(splitProxyMAC)})
	}
	if cfg.MTUDrop {
		fwd = append(fwd, sefl.Constrain{C: sefl.Lt(sefl.Ref{LV: sefl.IPLen}, sefl.C(1536))})
	}
	fwd = append(fwd, sefl.Forward{Port: 0}) // towards P
	r1.SetInCode(0, sefl.Seq(fwd...))
	// Return direction from P back to the client; drops untagged frames
	// when VLAN tagging is expected.
	var ret []sefl.Instr
	if cfg.ProxyStripsVLAN {
		ret = append(ret, models.VLANUnwrap(splitR1MAC, splitClientMAC))
	}
	ret = append(ret, sefl.Forward{Port: 1})
	r1.SetInCode(1, sefl.Seq(ret...))

	// P: the Split-TCP proxy. It terminates and re-originates connections;
	// statically we model the packet transformations: source MAC rewrite
	// (and the VLAN bug: tags removed, never restored).
	p := net.AddElement("proxy", "splittcp", 2, 2)
	var pFwd []sefl.Instr
	if cfg.Tunnel {
		pFwd = append(pFwd,
			models.StripEthernet(),
			models.IPinIPDecap(),
			models.PushEthernet(splitProxyMAC, splitR2MAC, sefl.EtherTypeIPv4),
		)
	}
	if cfg.ProxyStripsVLAN {
		// Bug: remove the tag before processing, do NOT restore it.
		pFwd = append(pFwd, models.VLANUnwrap(splitProxyMAC, splitR2MAC))
	}
	if cfg.ProxyRewritesMAC {
		pFwd = append(pFwd, sefl.Assign{LV: sefl.EtherSrc, E: sefl.MAC(splitProxyMAC)})
	}
	pFwd = append(pFwd, sefl.Assign{LV: sefl.EtherDst, E: sefl.MAC(splitR2MAC)}, sefl.Forward{Port: 0})
	p.SetInCode(0, sefl.Seq(pFwd...))
	var pRet []sefl.Instr
	if cfg.ProxyStripsVLAN {
		// Return frames towards R1 are pushed back *untagged* — the bug.
		pRet = append(pRet, sefl.Assign{LV: sefl.EtherDst, E: sefl.MAC(splitR1MAC)})
	} else {
		pRet = append(pRet, sefl.Assign{LV: sefl.EtherDst, E: sefl.MAC(splitR1MAC)})
	}
	pRet = append(pRet, sefl.Forward{Port: 1})
	p.SetInCode(1, sefl.Seq(pRet...))

	// R2: exit router with a DHCP-lease security appliance and an IPMirror
	// for round-trip checks.
	r2 := net.AddElement("r2", "router", 2, 2)
	var r2In []sefl.Instr
	if cfg.DHCPAppliance {
		// Lease check: the recorded (origEther, origIP) pair must match the
		// packet's current source fields (§8.4 "Security Appliance").
		r2In = append(r2In,
			sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.Meta{Name: "origIP"}}, sefl.Ref{LV: sefl.IPSrc})},
			sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.Meta{Name: "origEther"}}, sefl.Ref{LV: sefl.EtherSrc})},
		)
	}
	r2In = append(r2In, sefl.Forward{Port: 0})
	r2.SetInCode(0, sefl.Seq(r2In...))
	r2.SetInCode(1, sefl.Forward{Port: 1}) // return entry towards the proxy

	// Internet-side mirror bounces traffic back (for reachability checks
	// C -> R2 -> C).
	mirror := net.AddElement("mirror", "mirror", 1, 1)
	mirror.SetInCode(0, sefl.Seq(
		sefl.Allocate{LV: sefl.Meta{Name: "t"}, Size: 32},
		sefl.Assign{LV: sefl.Meta{Name: "t"}, E: sefl.Ref{LV: sefl.IPSrc}},
		sefl.Assign{LV: sefl.IPSrc, E: sefl.Ref{LV: sefl.IPDst}},
		sefl.Assign{LV: sefl.IPDst, E: sefl.Ref{LV: sefl.Meta{Name: "t"}}},
		sefl.Deallocate{LV: sefl.Meta{Name: "t"}, Size: 32},
		sefl.Forward{Port: 0},
	))

	client := net.AddElement("client", "sink", 1, 0)
	client.SetInCode(0, sefl.NoOp{})

	net.MustLink("ap", 0, "r1", 0)
	net.MustLink("r1", 0, "proxy", 0)
	net.MustLink("proxy", 0, "r2", 0)
	net.MustLink("r2", 0, "mirror", 0)
	net.MustLink("mirror", 0, "r2", 1)
	net.MustLink("r2", 1, "proxy", 1)
	net.MustLink("proxy", 1, "r1", 1)
	net.MustLink("r1", 1, "ap", 1)
	net.MustLink("ap", 1, "client", 0)
	return net
}

// SplitTCPClientPacket is the injection template: a TCP packet from the
// client, with DHCP-lease metadata recording the original source bindings
// (set by C, per §8.4).
func SplitTCPClientPacket() sefl.Instr {
	return sefl.Seq(
		sefl.NewTCPPacket(),
		// A valid TCP/IP packet is 40..9000 bytes long; without the bounds
		// the solver (correctly) finds 16-bit lengths that wrap around the
		// tunnel's +20 and defeat the MTU constraint.
		sefl.Constrain{C: sefl.Ge(sefl.Ref{LV: sefl.IPLen}, sefl.C(40))},
		sefl.Constrain{C: sefl.Le(sefl.Ref{LV: sefl.IPLen}, sefl.C(9000))},
		sefl.Assign{LV: sefl.EtherSrc, E: sefl.MAC(splitClientMAC)},
		sefl.Allocate{LV: sefl.Meta{Name: "origIP"}, Size: 32},
		sefl.Assign{LV: sefl.Meta{Name: "origIP"}, E: sefl.Ref{LV: sefl.IPSrc}},
		sefl.Allocate{LV: sefl.Meta{Name: "origEther"}, Size: 48},
		sefl.Assign{LV: sefl.Meta{Name: "origEther"}, E: sefl.Ref{LV: sefl.EtherSrc}},
	)
}
