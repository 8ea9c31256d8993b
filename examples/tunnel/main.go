// Tunnel invariance: the §2 motivating example. Two nested IP-in-IP
// tunnels (A -> E1 -> E2 -> D2 -> D1 -> B); symbolic execution proves the
// inner packet is invariant end to end — the property Header Space Analysis
// cannot express (a wildcard stays a wildcard).
package main

import (
	"fmt"
	"log"

	"symnet"
	"symnet/internal/models"
	"symnet/internal/sefl"
	"symnet/internal/verify"
)

func main() {
	net := symnet.NewNetwork()
	e1 := net.AddElement("E1", "encap", 1, 1)
	models.TunnelEntry(e1, "1.0.0.1", "2.0.0.1", "02:00:00:00:00:01", "02:00:00:00:00:02")
	e2 := net.AddElement("E2", "encap", 1, 1)
	models.TunnelEntry(e2, "1.0.0.2", "2.0.0.2", "02:00:00:00:00:03", "02:00:00:00:00:04")
	d2 := net.AddElement("D2", "decap", 1, 1)
	models.TunnelExit(d2, "02:00:00:00:00:05", "02:00:00:00:00:06")
	d1 := net.AddElement("D1", "decap", 1, 1)
	models.TunnelExit(d1, "02:00:00:00:00:07", "02:00:00:00:00:08")
	host := net.AddElement("B", "host", 1, 0)
	host.SetInCode(0, sefl.NoOp{})
	net.MustLink("E1", 0, "E2", 0)
	net.MustLink("E2", 0, "D2", 0)
	net.MustLink("D2", 0, "D1", 0)
	net.MustLink("D1", 0, "B", 0)

	sess, err := symnet.Compile(net, symnet.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run(symnet.PortRef{Elem: "E1", Port: 0}, sefl.NewTCPPacket())
	if err != nil {
		log.Fatal(err)
	}
	paths := res.DeliveredAt("B", 0)
	fmt.Printf("%d path(s) reach B through the double tunnel\n", len(paths))
	for _, p := range paths {
		for _, f := range []sefl.Hdr{sefl.IPSrc, sefl.IPDst, sefl.TcpSrc, sefl.TcpDst, sefl.TcpPayload} {
			inv, err := verify.FieldInvariant(p, f)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-12s invariant across the tunnel: %v\n", f.Name, inv)
		}
	}
}
