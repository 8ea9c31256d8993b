package symnet

import (
	"testing"

	"symnet/internal/sefl"
)

// TestFacadeQuickstart exercises the README example through the public API.
func TestFacadeQuickstart(t *testing.T) {
	net := NewNetwork()
	fw := net.AddElement("fw", "firewall", 1, 1)
	fw.SetInCode(WildcardPort, sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.C(80))},
		sefl.Forward{Port: 0},
	))
	host := net.AddElement("host", "sink", 1, 0)
	host.SetInCode(0, sefl.NoOp{})
	net.MustLink("fw", 0, "host", 0)

	sess, err := Compile(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(PortRef{Elem: "fw", Port: 0}, sefl.NewTCPPacket())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (Constrain does not branch)", res.Stats.Delivered)
	}
	if len(res.DeliveredAt("host", 0)) != 1 {
		t.Fatal("host unreachable")
	}
}

func TestFacadeLoopModes(t *testing.T) {
	net := NewNetwork()
	for _, n := range []string{"A", "B"} {
		e := net.AddElement(n, "fwd", 1, 1)
		e.SetInCode(0, sefl.Forward{Port: 0})
	}
	net.MustLink("A", 0, "B", 0)
	net.MustLink("B", 0, "A", 0)
	sess, err := Compile(net, Options{Loop: LoopFull})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ByStatus(Looped)) != 1 {
		t.Fatalf("loop not detected via facade: %+v", res.Stats)
	}
}
