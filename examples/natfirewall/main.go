// NAT + stateful firewall interaction: a cascade of a NAT and a stateful
// firewall, with a reflector standing in for the outside server. Symbolic
// execution shows (a) outgoing flows traverse and acquire a port mapping in
// the NAT's range, (b) reflected traffic re-enters and is restored, and
// (c) unsolicited inbound traffic is dropped by both boxes.
package main

import (
	"fmt"
	"log"

	"symnet"
	"symnet/internal/models"
	"symnet/internal/sefl"
	"symnet/internal/verify"
)

func mirror() sefl.Instr {
	return sefl.Seq(
		sefl.Allocate{LV: sefl.Meta{Name: "t"}, Size: 32},
		sefl.Assign{LV: sefl.Meta{Name: "t"}, E: sefl.Ref{LV: sefl.IPSrc}},
		sefl.Assign{LV: sefl.IPSrc, E: sefl.Ref{LV: sefl.IPDst}},
		sefl.Assign{LV: sefl.IPDst, E: sefl.Ref{LV: sefl.Meta{Name: "t"}}},
		sefl.Deallocate{LV: sefl.Meta{Name: "t"}, Size: 32},
		sefl.Allocate{LV: sefl.Meta{Name: "tp"}, Size: 16},
		sefl.Assign{LV: sefl.Meta{Name: "tp"}, E: sefl.Ref{LV: sefl.TcpSrc}},
		sefl.Assign{LV: sefl.TcpSrc, E: sefl.Ref{LV: sefl.TcpDst}},
		sefl.Assign{LV: sefl.TcpDst, E: sefl.Ref{LV: sefl.Meta{Name: "tp"}}},
		sefl.Deallocate{LV: sefl.Meta{Name: "tp"}, Size: 16},
		sefl.Forward{Port: 0},
	)
}

func main() {
	net := symnet.NewNetwork()
	fw := net.AddElement("FW", "stateful-firewall", 2, 2)
	models.StatefulFirewall(fw, 0, 1, 0, 1)
	nat := net.AddElement("NAT", "nat", 2, 2)
	models.NAT(nat, models.DefaultNATConfig("141.85.37.2"))
	srv := net.AddElement("SRV", "reflector", 1, 1)
	srv.SetInCode(0, mirror())
	inside := net.AddElement("HOST", "host", 1, 0)
	inside.SetInCode(0, sefl.NoOp{})

	// inside -> FW -> NAT -> server (mirrors) -> NAT -> FW -> inside.
	net.MustLink("FW", 0, "NAT", 0)
	net.MustLink("NAT", 0, "SRV", 0)
	net.MustLink("SRV", 0, "NAT", 1)
	net.MustLink("NAT", 1, "FW", 1)
	net.MustLink("FW", 1, "HOST", 0)

	sess, err := symnet.Compile(net, symnet.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run(symnet.PortRef{Elem: "FW", Port: 0}, sefl.NewTCPPacket())
	if err != nil {
		log.Fatal(err)
	}
	back := res.DeliveredAt("HOST", 0)
	fmt.Printf("round-trip paths through NAT+firewall: %d\n", len(back))
	for _, p := range back {
		dom, err := verify.FieldDomain(p, sefl.TcpDst)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  restored destination port domain: %s (original source port)\n", dom)
	}

	// Unsolicited traffic from the outside: inject at NAT's outside input.
	res2, err := sess.Run(symnet.PortRef{Elem: "NAT", Port: 1}, sefl.NewTCPPacket())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unsolicited inbound: %d delivered (want 0), %d dropped\n",
		len(res2.DeliveredAt("HOST", 0)), res2.Stats.Failed)
}
