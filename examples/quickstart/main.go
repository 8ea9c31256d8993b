// Quickstart: model a two-box network (port-forwarder + host), inject a
// symbolic TCP packet, and inspect the resulting execution paths — the
// paper's Fig. 4 example end to end.
package main

import (
	"fmt"
	"log"

	"symnet"
	"symnet/internal/sefl"
	"symnet/internal/verify"
)

func main() {
	net := symnet.NewNetwork()

	// Element A: constrain the destination address, then port-forward
	// TcpDst 123 -> 22 towards out 1; everything else leaves via out 2.
	a := net.AddElement("A", "portfwd", 1, 3)
	a.SetInCode(symnet.WildcardPort, sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.IP("141.85.37.1"))},
		sefl.If{
			C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.C(123)),
			Then: sefl.Seq(
				sefl.Assign{LV: sefl.IPDst, E: sefl.IP("192.168.1.100")},
				sefl.Assign{LV: sefl.TcpDst, E: sefl.C(22)},
				sefl.Forward{Port: 1},
			),
			Else: sefl.Forward{Port: 2},
		},
	))
	b := net.AddElement("B", "host", 1, 0)
	b.SetInCode(0, sefl.NoOp{})
	net.MustLink("A", 1, "B", 0)

	sess, err := symnet.Compile(net, symnet.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run(symnet.PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("explored %d paths (%d delivered, %d failed)\n\n",
		res.Stats.Paths, res.Stats.Delivered, res.Stats.Failed)
	for _, p := range res.Paths {
		fmt.Printf("path %d [%s] ends at %s\n", p.ID, p.Status, p.Last())
		if p.Status != symnet.Delivered {
			fmt.Printf("  reason: %s\n", p.FailMsg)
			continue
		}
		for _, h := range []sefl.Hdr{sefl.IPDst, sefl.TcpDst} {
			dom, err := verify.FieldDomain(p, h)
			if err != nil {
				continue
			}
			fmt.Printf("  %-8s ∈ %s\n", h.Name, dom)
		}
	}
}
