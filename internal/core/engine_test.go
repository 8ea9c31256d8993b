package core

import (
	"strings"
	"sync"
	"testing"

	"symnet/internal/memory"
	"symnet/internal/sefl"
)

// twoPortWire builds a network A(1 in, n out) -> B(1 in, 0 out) with A's
// input code as given and A.out[i] linked to sinks.
func sink(net *Network, name string) *Element {
	e := net.AddElement(name, "sink", 1, 0)
	e.SetInCode(0, sefl.NoOp{})
	return e
}

func TestFig4PortForwarding(t *testing.T) {
	// The paper's Fig. 4: element A constrains IPDst, then an If on
	// TcpDst == 123 rewrites address+port and forwards to out 1; the else
	// branch forwards to out 2.
	net := NewNetwork()
	a := net.AddElement("A", "portfwd", 1, 3)
	a.SetInCode(WildcardPort, sefl.Seq(
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
	sink(net, "B1")
	sink(net, "B2")
	net.MustLink("A", 1, "B1", 0)
	net.MustLink("A", 2, "B2", 0)

	res, err := Run(net, PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != 2 {
		t.Fatalf("want 2 delivered paths, got %+v", res.Stats)
	}
	at1 := res.DeliveredAt("B1", 0)
	at2 := res.DeliveredAt("B2", 0)
	if len(at1) != 1 || len(at2) != 1 {
		t.Fatalf("paths at B1=%d B2=%d", len(at1), len(at2))
	}
	// Path via out 1: rewritten destination address and port.
	p1 := at1[0]
	l3, _ := p1.Mem.Tag(sefl.TagL3)
	ipDst, err := p1.Mem.ReadHdr(l3+128, 32)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ipDst.ConstVal(); v != sefl.IPToNumber("192.168.1.100") {
		t.Fatalf("rewritten IPDst = %#x", v)
	}
	l4, _ := p1.Mem.Tag(sefl.TagL4)
	tcpDst, _ := p1.Mem.ReadHdr(l4+16, 16)
	if v, _ := tcpDst.ConstVal(); v != 22 {
		t.Fatalf("rewritten TcpDst = %d", v)
	}
	// Path via out 2: TcpDst must exclude 123, IPDst pinned to 141.85.37.1.
	p2 := at2[0]
	tcpDst2, _ := p2.Mem.ReadHdr(l4+16, 16)
	dom := p2.Ctx().Domain(tcpDst2)
	if dom.Contains(123) {
		t.Fatal("else-branch TcpDst domain must exclude 123")
	}
	ipDst2, _ := p2.Mem.ReadHdr(l3+128, 32)
	dom2 := p2.Ctx().Domain(ipDst2)
	if sz := dom2.Size(); sz != 1 || !dom2.Contains(sefl.IPToNumber("141.85.37.1")) {
		t.Fatalf("else-branch IPDst domain %v", dom2)
	}
}

func TestConstrainFailsPathWithoutBranching(t *testing.T) {
	net := NewNetwork()
	a := net.AddElement("FW", "firewall", 1, 1)
	a.SetInCode(0, sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.C(80))},
		sefl.Forward{Port: 0},
	))
	sink(net, "S")
	net.MustLink("FW", 0, "S", 0)
	res, err := Run(net, PortRef{Elem: "FW", Port: 0}, sefl.NewTCPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one path: the constraint narrows without branching.
	if res.Stats.Paths != 1 || res.Stats.Delivered != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
	p := res.Paths[0]
	l4, _ := p.Mem.Tag(sefl.TagL4)
	v, _ := p.Mem.ReadHdr(l4+16, 16)
	dom := p.Ctx().Domain(v)
	if dom.Size() != 1 || !dom.Contains(80) {
		t.Fatalf("TcpDst domain %v, want {80}", dom)
	}
}

func TestConstrainUnsatisfiableFails(t *testing.T) {
	net := NewNetwork()
	a := net.AddElement("FW", "firewall", 1, 1)
	a.SetInCode(0, sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.C(80))},
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.C(22))},
		sefl.Forward{Port: 0},
	))
	res, err := Run(net, PortRef{Elem: "FW", Port: 0}, sefl.NewTCPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 1 || res.Stats.Paths != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if !strings.Contains(res.Paths[0].FailMsg, "unsatisfiable") {
		t.Fatalf("fail message %q", res.Paths[0].FailMsg)
	}
}

func TestForkDuplicates(t *testing.T) {
	net := NewNetwork()
	a := net.AddElement("SW", "switch", 1, 3)
	a.SetInCode(0, sefl.Fork{Ports: []int{0, 1, 2}})
	for i, n := range []string{"H0", "H1", "H2"} {
		sink(net, n)
		net.MustLink("SW", i, n, 0)
	}
	res, err := Run(net, PortRef{Elem: "SW", Port: 0}, sefl.NewTCPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != 3 {
		t.Fatalf("fork must yield 3 paths, got %+v", res.Stats)
	}
}

func TestEgressConstraintsIndependent(t *testing.T) {
	// Egress switch pattern: fork then per-port constraints; each path only
	// carries its own port's constraint (no accumulated negations).
	net := NewNetwork()
	sw := net.AddElement("SW", "switch", 1, 2)
	sw.SetInCode(0, sefl.Fork{Ports: []int{0, 1}})
	sw.SetOutCode(0, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(0xaa, 48))})
	sw.SetOutCode(1, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(0xbb, 48))})
	sink(net, "H0")
	sink(net, "H1")
	net.MustLink("SW", 0, "H0", 0)
	net.MustLink("SW", 1, "H1", 0)
	res, err := Run(net, PortRef{Elem: "SW", Port: 0}, sefl.NewEthernetPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != 2 {
		t.Fatalf("stats %+v", res.Stats)
	}
	h0 := res.DeliveredAt("H0", 0)[0]
	v, _ := h0.Mem.ReadHdr(0, 48)
	if d := h0.Ctx().Domain(v); d.Size() != 1 || !d.Contains(0xaa) {
		t.Fatalf("H0 EtherDst domain %v", d)
	}
}

func TestMemorySafetyViolationFailsPath(t *testing.T) {
	// Access to L4 fields when only an IP packet exists (no L4 tag): the
	// path must fail, per the paper's layering safety.
	net := NewNetwork()
	a := net.AddElement("X", "box", 1, 1)
	a.SetInCode(0, sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.C(80))},
		sefl.Forward{Port: 0},
	))
	res, err := Run(net, PortRef{Elem: "X", Port: 0}, sefl.NewIPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if !strings.Contains(res.Paths[0].FailMsg, "unset tag") {
		t.Fatalf("fail message %q", res.Paths[0].FailMsg)
	}
}

func TestUnalignedAccessFailsPath(t *testing.T) {
	net := NewNetwork()
	a := net.AddElement("X", "box", 1, 1)
	// EtherDst is 48 bits at L2+0; reading 32 bits at L2+8 is unaligned.
	bad := sefl.Hdr{Off: sefl.FromTag(sefl.TagL2, 8), Size: 32}
	a.SetInCode(0, sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: bad}, sefl.C(1))},
		sefl.Forward{Port: 0},
	))
	res, err := Run(net, PortRef{Elem: "X", Port: 0}, sefl.NewTCPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 1 || !strings.Contains(res.Paths[0].FailMsg, "unaligned") {
		t.Fatalf("paths %+v msg=%q", res.Stats, res.Paths[0].FailMsg)
	}
}

func TestTTLWraparound(t *testing.T) {
	// The DecIPTTL bug from §8.3: decrement then constrain >= 1 gives a
	// single path because TTL 0 wraps to 255.
	net := NewNetwork()
	buggy := net.AddElement("DEC", "decttl", 1, 1)
	buggy.SetInCode(0, sefl.Seq(
		sefl.Assign{LV: sefl.IPTTL, E: sefl.Sub{A: sefl.Ref{LV: sefl.IPTTL}, B: sefl.C(1)}},
		sefl.Constrain{C: sefl.Ge(sefl.Ref{LV: sefl.IPTTL}, sefl.C(1))},
		sefl.Forward{Port: 0},
	))
	sink(net, "S")
	net.MustLink("DEC", 0, "S", 0)
	res, err := Run(net, PortRef{Elem: "DEC", Port: 0}, sefl.NewIPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Paths != 1 || res.Stats.Delivered != 1 {
		t.Fatalf("buggy DecIPTTL must produce exactly 1 path: %+v", res.Stats)
	}
	// Fixed version: constrain first, then decrement — packet with TTL 0
	// now yields a failed path alongside the delivered one.
	net2 := NewNetwork()
	fixed := net2.AddElement("DEC", "decttl", 1, 1)
	fixed.SetInCode(0, sefl.Seq(
		sefl.Constrain{C: sefl.Ge(sefl.Ref{LV: sefl.IPTTL}, sefl.C(1))},
		sefl.Assign{LV: sefl.IPTTL, E: sefl.Sub{A: sefl.Ref{LV: sefl.IPTTL}, B: sefl.C(1)}},
		sefl.Forward{Port: 0},
	))
	sink(net2, "S")
	net2.MustLink("DEC", 0, "S", 0)
	res2, err := Run(net2, PortRef{Elem: "DEC", Port: 0}, sefl.NewIPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Delivered != 1 {
		t.Fatalf("fixed DecIPTTL stats %+v", res2.Stats)
	}
	p := res2.Paths[0]
	l3, _ := p.Mem.Tag(sefl.TagL3)
	ttl, _ := p.Mem.ReadHdr(l3+64, 8)
	if d := p.Ctx().Domain(ttl); d.Contains(255) {
		t.Fatalf("fixed model TTL domain %v must not contain 255", d)
	}
}

func TestLoopDetection(t *testing.T) {
	// Two boxes forwarding to each other unconditionally: the loop detector
	// must stop the path.
	net := NewNetwork()
	for _, name := range []string{"A", "B"} {
		e := net.AddElement(name, "fwd", 1, 1)
		e.SetInCode(0, sefl.Forward{Port: 0})
	}
	net.MustLink("A", 0, "B", 0)
	net.MustLink("B", 0, "A", 0)
	res, err := Run(net, PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket(), Options{Loop: LoopFull})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Looped != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

func TestMetadataNAT(t *testing.T) {
	// The paper's NAT model (§7): outgoing mapping saved in local metadata;
	// return traffic restored only when it matches.
	natIn := sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPProto}, sefl.C(uint64(sefl.ProtoTCP)))},
		sefl.Allocate{LV: sefl.Meta{Name: "orig-ip", Local: true}, Size: 32},
		sefl.Allocate{LV: sefl.Meta{Name: "orig-port", Local: true}, Size: 16},
		sefl.Allocate{LV: sefl.Meta{Name: "new-ip", Local: true}, Size: 32},
		sefl.Allocate{LV: sefl.Meta{Name: "new-port", Local: true}, Size: 16},
		sefl.Assign{LV: sefl.Meta{Name: "orig-ip", Local: true}, E: sefl.Ref{LV: sefl.IPSrc}},
		sefl.Assign{LV: sefl.Meta{Name: "orig-port", Local: true}, E: sefl.Ref{LV: sefl.TcpSrc}},
		sefl.Assign{LV: sefl.IPSrc, E: sefl.IP("141.85.37.2")},
		sefl.Assign{LV: sefl.TcpSrc, E: sefl.Symbolic{W: 16, Name: "natport"}},
		sefl.Constrain{C: sefl.Ge(sefl.Ref{LV: sefl.TcpSrc}, sefl.C(1024))},
		sefl.Assign{LV: sefl.Meta{Name: "new-ip", Local: true}, E: sefl.Ref{LV: sefl.IPSrc}},
		sefl.Assign{LV: sefl.Meta{Name: "new-port", Local: true}, E: sefl.Ref{LV: sefl.TcpSrc}},
		sefl.Forward{Port: 0},
	)
	natBack := sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPProto}, sefl.C(uint64(sefl.ProtoTCP)))},
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.Ref{LV: sefl.Meta{Name: "new-ip", Local: true}})},
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.Ref{LV: sefl.Meta{Name: "new-port", Local: true}})},
		sefl.Assign{LV: sefl.IPDst, E: sefl.Ref{LV: sefl.Meta{Name: "orig-ip", Local: true}}},
		sefl.Assign{LV: sefl.TcpDst, E: sefl.Ref{LV: sefl.Meta{Name: "orig-port", Local: true}}},
		sefl.Forward{Port: 1},
	)
	// Topology: NAT.out0 -> MIRROR (swaps src/dst) -> NAT.in1 -> out1 -> SINK.
	net := NewNetwork()
	nat := net.AddElement("NAT", "nat", 2, 2)
	nat.SetInCode(0, natIn)
	nat.SetInCode(1, natBack)
	mirror := net.AddElement("MIR", "mirror", 1, 1)
	mirror.SetInCode(0, sefl.Seq(
		// Swap IP addresses and ports via temporaries.
		sefl.Allocate{LV: sefl.Meta{Name: "t-ip"}, Size: 32},
		sefl.Assign{LV: sefl.Meta{Name: "t-ip"}, E: sefl.Ref{LV: sefl.IPSrc}},
		sefl.Assign{LV: sefl.IPSrc, E: sefl.Ref{LV: sefl.IPDst}},
		sefl.Assign{LV: sefl.IPDst, E: sefl.Ref{LV: sefl.Meta{Name: "t-ip"}}},
		sefl.Deallocate{LV: sefl.Meta{Name: "t-ip"}, Size: 32},
		sefl.Allocate{LV: sefl.Meta{Name: "t-port"}, Size: 16},
		sefl.Assign{LV: sefl.Meta{Name: "t-port"}, E: sefl.Ref{LV: sefl.TcpSrc}},
		sefl.Assign{LV: sefl.TcpSrc, E: sefl.Ref{LV: sefl.TcpDst}},
		sefl.Assign{LV: sefl.TcpDst, E: sefl.Ref{LV: sefl.Meta{Name: "t-port"}}},
		sefl.Deallocate{LV: sefl.Meta{Name: "t-port"}, Size: 16},
		sefl.Forward{Port: 0},
	))
	sinkEl := sink(net, "SINK")
	_ = sinkEl
	net.MustLink("NAT", 0, "MIR", 0)
	net.MustLink("MIR", 0, "NAT", 1)
	net.MustLink("NAT", 1, "SINK", 0)

	res, err := Run(net, PortRef{Elem: "NAT", Port: 0}, sefl.NewTCPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.DeliveredAt("SINK", 0)
	if len(got) != 1 {
		for _, p := range res.Paths {
			t.Logf("path %d %s at %s: %s", p.ID, p.Status, p.Last(), p.FailMsg)
		}
		t.Fatalf("want 1 path at SINK, got %d", len(got))
	}
	// The restored destination must equal the original source address.
	p := got[0]
	l3, _ := p.Mem.Tag(sefl.TagL3)
	dst, _ := p.Mem.ReadHdr(l3+128, 32)
	hist, err := p.Mem.HdrHistory(l3+96, 32)
	if err != nil {
		t.Fatal(err)
	}
	origSrc := hist[0] // first assignment at injection
	if dst.Sym != origSrc.Sym || dst.Add != origSrc.Add {
		t.Fatalf("restored IPDst %v != original IPSrc %v", dst, origSrc)
	}
}

func TestHistoryRecordsPorts(t *testing.T) {
	net := NewNetwork()
	a := net.AddElement("A", "fwd", 1, 1)
	a.SetInCode(0, sefl.Forward{Port: 0})
	sink(net, "B")
	net.MustLink("A", 0, "B", 0)
	res, err := Run(net, PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket(), Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Paths[0]
	want := []PortRef{
		{Elem: "A", Port: 0},
		{Elem: "A", Port: 0, Out: true},
		{Elem: "B", Port: 0},
	}
	hist := p.History()
	if len(hist) != len(want) {
		t.Fatalf("history %v", hist)
	}
	for i := range want {
		if hist[i] != want[i] {
			t.Fatalf("history[%d] = %v, want %v", i, hist[i], want[i])
		}
	}
	if len(p.Trace) == 0 {
		t.Fatal("trace must be recorded when enabled")
	}
}

func TestForUnrollsOverMetadataSnapshot(t *testing.T) {
	net := NewNetwork()
	a := net.AddElement("A", "opts", 1, 1)
	a.SetInCode(0, sefl.Seq(
		// Strip every OPTx: set to 0.
		sefl.For{Pattern: "^OPT", Body: func(k sefl.Meta) sefl.Instr {
			return sefl.Assign{LV: k, E: sefl.C(0)}
		}},
		sefl.Forward{Port: 0},
	))
	init := sefl.Seq(
		sefl.NewTCPPacket(),
		sefl.Allocate{LV: sefl.Meta{Name: "OPT2"}, Size: 8},
		sefl.Assign{LV: sefl.Meta{Name: "OPT2"}, E: sefl.C(1)},
		sefl.Allocate{LV: sefl.Meta{Name: "OPT4"}, Size: 8},
		sefl.Assign{LV: sefl.Meta{Name: "OPT4"}, E: sefl.C(1)},
		sefl.Allocate{LV: sefl.Meta{Name: "SIZE2"}, Size: 8},
		sefl.Assign{LV: sefl.Meta{Name: "SIZE2"}, E: sefl.C(4)},
	)
	res, err := Run(net, PortRef{Elem: "A", Port: 0}, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Paths != 1 {
		t.Fatalf("For must not branch: %+v", res.Stats)
	}
	p := res.Paths[0]
	for _, name := range []string{"OPT2", "OPT4"} {
		v, err := p.Mem.ReadMeta(metaKeyGlobal(name))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := v.ConstVal(); got != 0 {
			t.Fatalf("%s = %d, want stripped to 0", name, got)
		}
	}
	v, _ := p.Mem.ReadMeta(metaKeyGlobal("SIZE2"))
	if got, _ := v.ConstVal(); got != 4 {
		t.Fatalf("SIZE2 = %d, must be untouched", got)
	}
}

func TestDeliveredAtUnconnectedOutputPort(t *testing.T) {
	net := NewNetwork()
	a := net.AddElement("A", "fwd", 1, 1)
	a.SetInCode(0, sefl.Forward{Port: 0})
	res, err := Run(net, PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
	last := res.Paths[0].Last()
	if !last.Out || last.Elem != "A" {
		t.Fatalf("path must end at A's output port, got %v", last)
	}
}

// TestFinishedPathsCloneConcurrently pins the clone-concurrency rule of the
// memory edit tokens: finish seals a path's memory, so any number of
// goroutines may clone a finished path's Mem, and write to their clones, at
// once. Under -race, an unsealed Mem shows as Clone's token write racing.
func TestFinishedPathsCloneConcurrently(t *testing.T) {
	net := NewNetwork()
	net.AddElement("A", "a", 1, 2).SetInCode(0, sefl.Seq(
		sefl.Assign{LV: sefl.TcpDst, E: sefl.C(80)},
		sefl.If{
			C:    sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.IP("10.0.0.1")),
			Then: sefl.Forward{Port: 0},
			Else: sefl.Forward{Port: 1},
		},
	))
	for _, name := range []string{"B0", "B1"} {
		// A write after the last fork: the path's Mem holds a token until
		// the path finishes.
		sink(net, name).SetInCode(0, sefl.Assign{LV: sefl.TcpSrc, E: sefl.C(1)})
	}
	net.MustLink("A", 0, "B0", 0)
	net.MustLink("A", 1, "B1", 0)
	res, err := Run(net, PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != 2 {
		t.Fatalf("want 2 delivered paths, got %+v", res.Stats)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range res.Paths {
				p.Mem.CloneInto(new(memory.Mem)).CreateTag("scratch", 1)
			}
		}()
	}
	wg.Wait()
	for _, p := range res.Paths {
		if _, ok := p.Mem.Tag("scratch"); ok {
			t.Fatalf("path %d: a clone's write reached the finished path's memory", p.ID)
		}
	}
}
