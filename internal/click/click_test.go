package click

import (
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/sefl"
	"symnet/internal/solver"
	"symnet/internal/verify"
)

func TestParseConfigBasic(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
// a tiny pipeline
cls :: IPClassifier(tcp dst port 80, tcp);
mirror :: IPMirror();
q :: Queue();

cls[0] -> mirror -> q;
cls[1] -> [0]q;
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Net.Element("cls"); !ok {
		t.Fatal("cls not declared")
	}
	if _, ok := cfg.Net.Follow(core.PortRef{Elem: "mirror", Port: 0, Out: true}); !ok {
		t.Fatal("mirror -> q link missing")
	}
	if len(cfg.Concrete) != 3 {
		t.Fatalf("concrete twins = %d", len(cfg.Concrete))
	}
	// The second connection must conflict: a's output 0 is already linked.
	_, err = ParseConfig(strings.NewReader(`
a :: Queue(); b :: Queue();
a -> b;
a -> b;
`))
	if err == nil || !strings.Contains(err.Error(), "line 4: core: output port a.out[0] already linked") {
		t.Fatalf("duplicate output link: error %v, want line 4's output port a.out[0] already linked", err)
	}
	// Two declarations on one line are two elements, however the
	// parentheses and semicolons sit.
	cfg, err = ParseConfig(strings.NewReader("a :: Queue(); b :: Queue() ;c::Discard;\na -> b; b -> c\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, ok := cfg.Net.Element(name); !ok {
			t.Errorf("element %s not declared", name)
		}
	}
	if _, ok := cfg.Net.Follow(core.PortRef{Elem: "b", Port: 0, Out: true}); !ok {
		t.Error("b -> c link missing")
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []string{
		"x :: NoSuchElement();",
		"x :: Queue(); x[0] -> y;",
		"x :: Queue(); nonsense line",
		"x :: HostEtherFilter();", // missing arg
	}
	for _, c := range cases {
		if _, err := ParseConfig(strings.NewReader(c)); err == nil {
			t.Errorf("config %q must fail to parse", c)
		}
	}
}

func TestParseFilter(t *testing.T) {
	f, err := parseFilter("tcp and dst port 80 and src host 10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if f.Proto == nil || *f.Proto != 6 || f.DstPort == nil || *f.DstPort != 80 || f.SrcHost == nil {
		t.Fatalf("filter %+v", f)
	}
	if _, err := parseFilter("tcp dst frobnicate 80"); err == nil {
		t.Fatal("bad filter must error")
	}
}

func TestIPClassifierModelAndConcreteAgree(t *testing.T) {
	filters := []filter{
		{Proto: u(6), DstPort: u(80)},
		{Proto: u(6)},
	}
	net := core.NewNetwork()
	_, conc := instantiate(net, "cls", ipClassifier(filters))
	res, err := core.Run(net, core.PortRef{Elem: "cls", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two delivered paths (80 and non-80) plus no failed non-TCP path since
	// the template pins proto 6.
	delivered := res.ByStatus(core.Delivered)
	if len(delivered) != 2 {
		t.Fatalf("delivered = %d", len(delivered))
	}
	// Concrete agreement on two probes.
	p80 := &Packet{IP: []*IPHdr{{Proto: 6}}, TCP: &TCPHdr{Dst: 80}}
	if port, _, ok := conc.Process(0, p80); !ok || port != 0 {
		t.Fatalf("port-80 packet: port=%d ok=%v", port, ok)
	}
	p22 := &Packet{IP: []*IPHdr{{Proto: 6}}, TCP: &TCPHdr{Dst: 22}}
	if port, _, ok := conc.Process(0, p22); !ok || port != 1 {
		t.Fatalf("port-22 packet: port=%d ok=%v", port, ok)
	}
}

// TestFig9RewriterLoop reproduces §8.3's IPRewriter finding: with fully
// symbolic packets, the path where src==dst matches the forward mapping
// after mirroring and cycles between IPRewriter and IPMirror.
func TestFig9RewriterLoop(t *testing.T) {
	build := func() *core.Network {
		net := core.NewNetwork()
		instantiate(net, "rw", ipRewriter())
		instantiate(net, "mirror", IPMirror())
		sink := net.AddElement("src", "sink", 1, 0)
		sink.SetInCode(0, sefl.NoOp{})
		net.MustLink("rw", 0, "mirror", 0)
		net.MustLink("mirror", 0, "rw", 1)
		net.MustLink("rw", 1, "src", 0)
		return net
	}
	res, err := core.Run(build(), core.PortRef{Elem: "rw", Port: 0}, sefl.NewTCPPacket(),
		core.Options{Loop: core.LoopFull})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Looped == 0 {
		t.Fatal("symbolic execution must discover the rewriter/mirror cycle")
	}
	// The cycling path requires src==dst: its constraints must force the
	// addresses equal.
	var loopPath *core.Path
	for _, p := range res.Paths {
		if p.Status == core.Looped {
			loopPath = p
			break
		}
	}
	ctx := loopPath.Ctx().CloneInto(new(solver.Context))
	src, err1 := verify.FieldValue(loopPath, sefl.IPSrc)
	dst, err2 := verify.FieldValue(loopPath, sefl.IPDst)
	if err1 != nil || err2 != nil {
		t.Fatalf("field read: %v %v", err1, err2)
	}
	if ctx.Add(expr.NewCmp(expr.Ne, src, dst)) && ctx.Sat() {
		t.Fatal("loop path must force IPSrc == IPDst")
	}
	// The fix: constrain src != dst at injection; the loop disappears.
	fixedInit := sefl.Seq(
		sefl.NewTCPPacket(),
		sefl.Constrain{C: sefl.Ne(sefl.Ref{LV: sefl.IPSrc}, sefl.Ref{LV: sefl.IPDst})},
	)
	res2, err := core.Run(build(), core.PortRef{Elem: "rw", Port: 0}, fixedInit,
		core.Options{Loop: core.LoopFull})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Looped != 0 {
		t.Fatal("constraining src != dst must remove the cycle")
	}
	if len(res2.DeliveredAt("src", 0)) != 1 {
		t.Fatal("return traffic must reach src after the fix")
	}
}

func TestTunnelElementsRoundTrip(t *testing.T) {
	net := core.NewNetwork()
	_, encC := instantiate(net, "enc", ipEncap("1.0.0.1", "2.0.0.1"))
	_, decC := instantiate(net, "dec", ipDecap())
	sink := net.AddElement("out", "sink", 1, 0)
	sink.SetInCode(0, sefl.NoOp{})
	net.MustLink("enc", 0, "dec", 0)
	net.MustLink("dec", 0, "out", 0)
	res, err := core.Run(net, core.PortRef{Elem: "enc", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeliveredAt("out", 0)) != 1 {
		t.Fatal("encap->decap must deliver")
	}
	// Concrete twin agrees.
	p := &Packet{IP: []*IPHdr{{Src: 1, Dst: 2, TTL: 10, Len: 40, Proto: 6}}, TCP: &TCPHdr{Src: 1, Dst: 2}}
	_, mid, ok := encC.Process(0, p)
	if !ok || len(mid.IP) != 2 || mid.outerIP().Proto != 4 {
		t.Fatalf("concrete encap: %v ok=%v", mid, ok)
	}
	_, out, ok := decC.Process(0, mid)
	if !ok || len(out.IP) != 1 || out.innerIP().Src != 1 {
		t.Fatalf("concrete decap: %v ok=%v", out, ok)
	}
}
