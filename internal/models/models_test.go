package models

import (
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/memory"
	"symnet/internal/sefl"
	"symnet/internal/tables"
	"symnet/internal/verify"
)

func sinkEl(net *core.Network, name string) {
	net.AddElement(name, "sink", 1, 0).SetInCode(0, sefl.NoOp{})
}

func testMACTable() tables.MACTable {
	return tables.MACTable{
		{MAC: 0x0000aa0001, VLAN: 1, Port: 0},
		{MAC: 0x0000aa0002, VLAN: 1, Port: 0},
		{MAC: 0x0000bb0001, VLAN: 1, Port: 1},
		{MAC: 0x0000cc0001, VLAN: 1, Port: 2},
		{MAC: 0x0000cc0002, VLAN: 1, Port: 2},
		{MAC: 0x0000cc0003, VLAN: 1, Port: 2},
	}
}

func runSwitch(t *testing.T, style Style) *core.Result {
	t.Helper()
	net := core.NewNetwork()
	sw := net.AddElement("SW", "switch", 1, 3)
	if err := Switch(sw, testMACTable(), style); err != nil {
		t.Fatal(err)
	}
	for i, n := range []string{"H0", "H1", "H2"} {
		sinkEl(net, n)
		net.MustLink("SW", i, n, 0)
	}
	res, err := core.Run(net, core.PortRef{Elem: "SW", Port: 0}, sefl.NewEthernetPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSwitchStylesAgreeOnForwarding(t *testing.T) {
	for _, style := range []Style{Basic, Ingress, Egress} {
		res := runSwitch(t, style)
		// Every style must deliver to all three hosts.
		for i, host := range []string{"H0", "H1", "H2"} {
			paths := res.DeliveredAt(host, 0)
			if len(paths) == 0 {
				t.Fatalf("style %v: no path to %s", style, host)
			}
			// The H2 paths must allow exactly the three cc MACs.
			if i == 2 {
				var total uint64
				for _, p := range paths {
					d, err := verify.FieldDomain(p, sefl.EtherDst)
					if err != nil {
						t.Fatal(err)
					}
					total += d.Size()
				}
				if total != 3 {
					t.Fatalf("style %v: H2 admits %d MACs, want 3", style, total)
				}
			}
		}
	}
}

func TestSwitchPathCounts(t *testing.T) {
	// Basic branches per MAC entry (6 delivered paths + unknown-MAC fail);
	// Ingress and Egress branch per port (3 delivered paths).
	if res := runSwitch(t, Basic); res.Stats.Delivered != 6 {
		t.Fatalf("basic delivered = %d, want 6", res.Stats.Delivered)
	}
	for _, style := range []Style{Ingress, Egress} {
		if res := runSwitch(t, style); res.Stats.Delivered != 3 {
			t.Fatalf("%v delivered = %d, want 3", style, res.Stats.Delivered)
		}
	}
}

func TestSwitchUnknownMACFails(t *testing.T) {
	for _, style := range []Style{Basic, Ingress} {
		res := runSwitch(t, style)
		var unknown int
		for _, p := range res.ByStatus(core.Failed) {
			if strings.Contains(p.FailMsg, "Mac unknown") {
				unknown++
			}
		}
		if unknown != 1 {
			t.Fatalf("style %v: unknown-MAC failures = %d, want 1", style, unknown)
		}
	}
}

// paperFIB is the overlapping 4-route table from §7 used to motivate LPM
// compilation.
func paperFIB() tables.FIB {
	return tables.FIB{
		{Prefix: sefl.IPToNumber("192.168.0.1"), Len: 32, Port: 0},
		{Prefix: sefl.IPToNumber("10.0.0.0"), Len: 8, Port: 0},
		{Prefix: sefl.IPToNumber("192.168.0.0"), Len: 24, Port: 1},
		{Prefix: sefl.IPToNumber("10.10.0.1"), Len: 32, Port: 1},
	}
}

func runRouter(t *testing.T, fib tables.FIB, style Style, nOut int) *core.Result {
	t.Helper()
	net := core.NewNetwork()
	r := net.AddElement("R", "router", 1, nOut)
	if err := Router(r, fib, style); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nOut; i++ {
		name := "H" + string(rune('0'+i))
		sinkEl(net, name)
		net.MustLink("R", i, name, 0)
	}
	res, err := core.Run(net, core.PortRef{Elem: "R", Port: 0}, sefl.NewIPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRouterLPMSemantics(t *testing.T) {
	// 10.10.0.1 is covered by 10/8 (port 0) but must go to port 1 (its /32).
	host := sefl.IPToNumber("10.10.0.1")
	for _, style := range []Style{Basic, Ingress, Egress} {
		res := runRouter(t, paperFIB(), style, 2)
		toH0 := res.DeliveredAt("H0", 0)
		toH1 := res.DeliveredAt("H1", 0)
		if len(toH0) == 0 || len(toH1) == 0 {
			t.Fatalf("style %v: H0=%d H1=%d paths", style, len(toH0), len(toH1))
		}
		h0Sees, h1Sees := false, false
		for _, p := range toH0 {
			d, err := verify.FieldDomain(p, sefl.IPDst)
			if err != nil {
				t.Fatal(err)
			}
			if d.Contains(host) {
				h0Sees = true
			}
		}
		for _, p := range toH1 {
			d, err := verify.FieldDomain(p, sefl.IPDst)
			if err != nil {
				t.Fatal(err)
			}
			if d.Contains(host) {
				h1Sees = true
			}
		}
		if h0Sees {
			t.Fatalf("style %v: 10.10.0.1 wrongly reachable via port 0 (LPM violated)", style)
		}
		if !h1Sees {
			t.Fatalf("style %v: 10.10.0.1 not reachable via port 1", style)
		}
	}
}

func TestRouterPathCounts(t *testing.T) {
	// Basic: one path per prefix (4) + no-route; grouped styles: one per
	// port (2) + no-route for ingress.
	res := runRouter(t, paperFIB(), Basic, 2)
	if res.Stats.Delivered != 4 {
		t.Fatalf("basic delivered = %d, want 4", res.Stats.Delivered)
	}
	for _, style := range []Style{Ingress, Egress} {
		res := runRouter(t, paperFIB(), style, 2)
		if res.Stats.Delivered != 2 {
			t.Fatalf("%v delivered = %d, want 2 (one per port)", style, res.Stats.Delivered)
		}
	}
}

// TestModelsRefuseRowsTheyCannotCompile: a route or MAC entry the text
// parsers would refuse is an error naming it, in every style, and never a
// panic. A /40 used to index CompileLPM's length buckets out of range; a /8
// with host bits set used to compile and never be excluded from 0.0.0.0/0;
// a 34-bit prefix used to print as 0.0.0.0/32.
func TestModelsRefuseRowsTheyCannotCompile(t *testing.T) {
	good := tables.Route{Prefix: sefl.IPToNumber("10.0.0.0"), Len: 8, Port: 1}
	routes := map[string]tables.Route{
		"length 40":         {Prefix: 0, Len: 40, Port: 0},
		"negative length":   {Prefix: 0, Len: -1, Port: 0},
		"host bits set":     {Prefix: sefl.IPToNumber("10.0.0.1"), Len: 8, Port: 0},
		"34-bit prefix":     {Prefix: 1 << 33, Len: 32, Port: 0},
		"negative port":     {Prefix: sefl.IPToNumber("10.0.0.0"), Len: 8, Port: -1},
		"default, bad port": {Prefix: 0, Len: 0, Port: -3},
	}
	macs := map[string]tables.MACEntry{
		"49-bit address": {MAC: 1 << 48, VLAN: 1, Port: 0},
		"negative vlan":  {MAC: 1, VLAN: -1, Port: 0},
		"negative port":  {MAC: 1, VLAN: 1, Port: -1},
	}
	refused := func(name string, install func(e *core.Element) error) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s: panicked: %v", name, p)
			}
		}()
		err := install(core.NewNetwork().AddElement("X", "box", 1, 2))
		if err == nil || !strings.Contains(err.Error(), "X: ") || !strings.Contains(err.Error(), " 1 (") {
			t.Errorf("%s: error %v, want one naming entry 1 of X", name, err)
		}
	}
	for _, style := range []Style{Basic, Ingress, Egress} {
		for name, r := range routes {
			fib := tables.FIB{good, r}
			refused("router "+style.String()+" "+name, func(e *core.Element) error { return Router(e, fib, style) })
		}
		for name, m := range macs {
			tbl := tables.MACTable{{MAC: 2, VLAN: 1, Port: 1}, m}
			refused("switch "+style.String()+" "+name, func(e *core.Element) error { return Switch(e, tbl, style) })
		}
	}
	// A port the element lacks is still CheckTable's error.
	net := core.NewNetwork()
	if err := Router(net.AddElement("Y", "router", 1, 2), tables.FIB{good, {Port: 5}}, Egress); err == nil ||
		!strings.Contains(err.Error(), "uses port 5 but element has 2 output ports") {
		t.Errorf("router with a port past NumOut: %v", err)
	}
	if err := Switch(net.AddElement("Z", "switch", 1, 2), tables.MACTable{{MAC: 1, Port: 9}}, Egress); err == nil ||
		!strings.Contains(err.Error(), "uses port 9 but element has 2 output ports") {
		t.Errorf("switch with a port past NumOut: %v", err)
	}
}

func TestNATForwardAndReverse(t *testing.T) {
	net := core.NewNetwork()
	nat := net.AddElement("NAT", "nat", 2, 2)
	NAT(nat, DefaultNATConfig("141.85.37.2"))
	// Bounce: out 0 -> mirror -> in 1; out 1 -> sink.
	mir := net.AddElement("MIR", "mirror", 1, 1)
	mir.SetInCode(0, sefl.Seq(
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
	))
	sinkEl(net, "IN")
	net.MustLink("NAT", 0, "MIR", 0)
	net.MustLink("MIR", 0, "NAT", 1)
	net.MustLink("NAT", 1, "IN", 0)
	res, err := core.Run(net, core.PortRef{Elem: "NAT", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := res.DeliveredAt("IN", 0)
	if len(paths) != 1 {
		t.Fatalf("want 1 path through NAT and back, got %d", len(paths))
	}
	p := paths[0]
	// The restored destination port must be the original source port: the
	// first value TcpSrc ever held equals the final value of TcpDst.
	l4, _ := p.Mem.Tag(sefl.TagL4)
	srcHist, err := p.Mem.HdrHistory(l4+0, 16)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := verify.FieldValue(p, sefl.TcpDst)
	if err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(srcHist[0]) {
		t.Fatalf("restored TcpDst %v != original TcpSrc %v", dst, srcHist[0])
	}
	// The mapped port (visible mid-path in TcpDst's history, where the
	// mirror placed it) must be range-constrained to the NAT's port pool.
	dstHist, err := p.Mem.HdrHistory(l4+16, 16)
	if err != nil {
		t.Fatal(err)
	}
	mapped := dstHist[len(dstHist)-2] // value before the final restoration
	mdom := p.Ctx().Domain(mapped)
	if mdom.Contains(100) {
		t.Fatalf("mapped port domain %v must exclude ports < 1024", mdom)
	}
	if mn, _ := mdom.Min(); mn != 1024 {
		t.Fatalf("mapped port domain %v must start at 1024", mdom)
	}
}

func TestTunnelPayloadInvariance(t *testing.T) {
	// §2's motivating example: A -> E1 -> E2 -> D2 -> D1 -> B with two
	// nested IP-in-IP tunnels. Packet contents must be invariant end to end
	// — the property HSA cannot capture and SymNet proves directly.
	net := core.NewNetwork()
	for _, n := range []string{"E1", "E2"} {
		e := net.AddElement(n, "encap", 1, 1)
		TunnelEntry(e, "1.0.0."+string(rune('1'+len(n)%2)), "2.0.0.1", "00:00:00:00:00:01", "00:00:00:00:00:02")
	}
	for _, n := range []string{"D2", "D1"} {
		e := net.AddElement(n, "decap", 1, 1)
		TunnelExit(e, "00:00:00:00:00:03", "00:00:00:00:00:04")
	}
	sinkEl(net, "B")
	net.MustLink("E1", 0, "E2", 0)
	net.MustLink("E2", 0, "D2", 0)
	net.MustLink("D2", 0, "D1", 0)
	net.MustLink("D1", 0, "B", 0)
	res, err := core.Run(net, core.PortRef{Elem: "E1", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := res.DeliveredAt("B", 0)
	if len(paths) != 1 {
		for _, p := range res.Paths {
			t.Logf("path %d %v at %v: %s", p.ID, p.Status, p.Last(), p.FailMsg)
		}
		t.Fatalf("want 1 path to B, got %d", len(paths))
	}
	p := paths[0]
	// Inner IP and TCP fields must be untouched.
	for _, f := range []sefl.Hdr{sefl.IPSrc, sefl.IPDst, sefl.TcpSrc, sefl.TcpDst, sefl.TcpPayload} {
		inv, err := verify.FieldInvariant(p, f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !inv {
			t.Fatalf("%s must be invariant across the tunnel", f.Name)
		}
	}
	// Exactly two encapsulation layers were added and removed: the (inner)
	// IPSrc offset holds one allocation, so one deallocation empties it.
	m := p.Mem.CloneInto(new(memory.Mem))
	if err := m.DeallocateHdr(112+96, 32); err != nil {
		t.Fatalf("inner IPSrc: %v", err)
	}
	if _, err := m.ReadHdr(112+96, 32); err == nil {
		t.Fatal("inner IPSrc is stacked more than once")
	}
}

func TestTunnelDecapWithoutEncapFails(t *testing.T) {
	net := core.NewNetwork()
	d := net.AddElement("D", "decap", 1, 1)
	TunnelExit(d, "00:00:00:00:00:03", "00:00:00:00:00:04")
	sinkEl(net, "B")
	net.MustLink("D", 0, "B", 0)
	res, err := core.Run(net, core.PortRef{Elem: "D", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeliveredAt("B", 0)) != 0 {
		t.Fatal("decapsulating a non-tunneled packet must not succeed")
	}
}

func TestEncryptionOpacityAndRecovery(t *testing.T) {
	// §7: after encryption a snooping box sees a fresh symbol, not the
	// payload; decryption with the right key restores the original.
	const key = 0xfeedface
	net := core.NewNetwork()
	enc := net.AddElement("ENC", "encrypt", 1, 1)
	EncryptTunnel(enc, key)
	snoop := net.AddElement("SNOOP", "monitor", 1, 1)
	snoop.SetInCode(0, sefl.Forward{Port: 0})
	dec := net.AddElement("DEC", "decrypt", 1, 1)
	DecryptTunnel(dec, key)
	sinkEl(net, "B")
	net.MustLink("ENC", 0, "SNOOP", 0)
	net.MustLink("SNOOP", 0, "DEC", 0)
	net.MustLink("DEC", 0, "B", 0)
	res, err := core.Run(net, core.PortRef{Elem: "ENC", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := res.DeliveredAt("B", 0)
	if len(paths) != 1 {
		t.Fatalf("want 1 path, got %d", len(paths))
	}
	p := paths[0]
	inv, err := verify.FieldInvariant(p, sefl.TcpPayload)
	if err != nil {
		t.Fatal(err)
	}
	if !inv {
		t.Fatal("payload must be restored after decryption")
	}
}

func TestDecryptionWrongKeyFails(t *testing.T) {
	net := core.NewNetwork()
	enc := net.AddElement("ENC", "encrypt", 1, 1)
	EncryptTunnel(enc, 111)
	dec := net.AddElement("DEC", "decrypt", 1, 1)
	DecryptTunnel(dec, 222)
	sinkEl(net, "B")
	net.MustLink("ENC", 0, "DEC", 0)
	net.MustLink("DEC", 0, "B", 0)
	res, err := core.Run(net, core.PortRef{Elem: "ENC", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeliveredAt("B", 0)) != 0 {
		t.Fatal("wrong key must not decrypt")
	}
	if res.Stats.Failed != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

func TestVLANWrapUnwrap(t *testing.T) {
	net := core.NewNetwork()
	tagger := net.AddElement("TAG", "vlan", 1, 1)
	tagger.SetInCode(0, sefl.Seq(VLANWrap(302, "00:00:00:00:00:01", "00:00:00:00:00:02"), sefl.Forward{Port: 0}))
	untag := net.AddElement("UNTAG", "vlan", 1, 1)
	untag.SetInCode(0, sefl.Seq(VLANUnwrap("00:00:00:00:00:03", "00:00:00:00:00:04"), sefl.Forward{Port: 0}))
	sinkEl(net, "B")
	net.MustLink("TAG", 0, "UNTAG", 0)
	net.MustLink("UNTAG", 0, "B", 0)
	res, err := core.Run(net, core.PortRef{Elem: "TAG", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := res.DeliveredAt("B", 0)
	if len(paths) != 1 {
		for _, p := range res.Paths {
			t.Logf("path %d %v at %v: %s", p.ID, p.Status, p.Last(), p.FailMsg)
		}
		t.Fatalf("want 1 path, got %d", len(paths))
	}
	// After unwrap, EtherProto is IPv4 again and the VLAN tag is gone.
	v, err := verify.FieldValue(paths[0], sefl.EtherProto)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v.ConstVal(); got != sefl.EtherTypeIPv4 {
		t.Fatalf("EtherProto after unwrap = %#x", got)
	}
	if _, ok := paths[0].Mem.Tag(sefl.TagVLAN); ok {
		t.Fatal("VLAN tag must be destroyed")
	}
}

func TestVLANUnwrapUntaggedFails(t *testing.T) {
	// The §8.4 bug: pushing untagged frames at a box expecting VLAN tags.
	net := core.NewNetwork()
	untag := net.AddElement("UNTAG", "vlan", 1, 1)
	untag.SetInCode(0, sefl.Seq(VLANUnwrap("00:00:00:00:00:03", "00:00:00:00:00:04"), sefl.Forward{Port: 0}))
	sinkEl(net, "B")
	net.MustLink("UNTAG", 0, "B", 0)
	res, err := core.Run(net, core.PortRef{Elem: "UNTAG", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeliveredAt("B", 0)) != 0 {
		t.Fatal("untagged frame must be dropped by VLAN unwrap")
	}
}

func TestSeqRandomizer(t *testing.T) {
	net := core.NewNetwork()
	fw := net.AddElement("FW", "seqrand", 2, 2)
	SeqRandomizer(fw, 0, 1, 0, 1)
	mir := net.AddElement("MIR", "mirror", 1, 1)
	mir.SetInCode(0, sefl.Seq(
		// Acknowledge the observed sequence number.
		sefl.Assign{LV: sefl.TcpAck, E: sefl.Ref{LV: sefl.TcpSeq}},
		sefl.Forward{Port: 0},
	))
	sinkEl(net, "IN")
	net.MustLink("FW", 0, "MIR", 0)
	net.MustLink("MIR", 0, "FW", 1)
	net.MustLink("FW", 1, "IN", 0)
	res, err := core.Run(net, core.PortRef{Elem: "FW", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := res.DeliveredAt("IN", 0)
	if len(paths) != 1 {
		t.Fatalf("want 1 path, got %d", len(paths))
	}
	// The inside host receives an ACK of its *original* sequence number.
	p := paths[0]
	ack, err := verify.FieldValue(p, sefl.TcpAck)
	if err != nil {
		t.Fatal(err)
	}
	seqHist, err := p.Mem.HdrHistory(112+160+32, 32) // TcpSeq absolute offset
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Equal(seqHist[0]) {
		t.Fatalf("restored ack %v != original seq %v", ack, seqHist[0])
	}
}
