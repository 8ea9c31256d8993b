package asa

import (
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/minic"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

func metaVal(p *core.Path, name string) (expr.Lin, error) {
	return p.Mem.ReadMeta(memory.MetaKey{Name: name, Instance: memory.GlobalScope})
}

func runOptions(t *testing.T, kinds []uint64, policy OptionsPolicy, extra sefl.Instr) *core.Result {
	t.Helper()
	net := core.NewNetwork()
	el := net.AddElement("ASA", "tcpoptions", 1, 1)
	OptionsElement(el, policy)
	sink := net.AddElement("S", "sink", 1, 0)
	sink.SetInCode(0, sefl.NoOp{})
	net.MustLink("ASA", 0, "S", 0)
	init := WithOptions(kinds)
	if extra != nil {
		init = sefl.Seq(init, extra)
	}
	res, err := core.Run(net, core.PortRef{Elem: "ASA", Port: 0}, init, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMultipathAlwaysStripped verifies the Table 4 property "the multipath
// option is always stripped".
func TestMultipathAlwaysStripped(t *testing.T) {
	res := runOptions(t, []uint64{minic.OptMultipath, minic.OptMSS}, DefaultPolicy(), nil)
	for _, p := range res.ByStatus(core.Delivered) {
		v, err := metaVal(p, "OPT30")
		if err != nil {
			t.Fatal(err)
		}
		if got, isConst := v.ConstVal(); !isConst || got != 0 {
			t.Fatalf("OPT30 = %v on path %d, want 0 on every path", v, p.ID)
		}
	}
}

// TestMSSAlwaysAdded verifies "the MSS option is always added even if it is
// not present in the original packet, and its value is at most 1380".
func TestMSSAlwaysAdded(t *testing.T) {
	res := runOptions(t, []uint64{minic.OptWScale}, DefaultPolicy(), nil) // no MSS injected
	paths := res.ByStatus(core.Delivered)
	if len(paths) == 0 {
		t.Fatal("no delivered paths")
	}
	for _, p := range paths {
		v, err := metaVal(p, "OPT2")
		if err != nil {
			t.Fatalf("path %d: OPT2 missing: %v", p.ID, err)
		}
		if got, _ := v.ConstVal(); got != 1 {
			t.Fatalf("OPT2 = %v, want always 1", v)
		}
		val, err := metaVal(p, "VAL2")
		if err != nil {
			t.Fatal(err)
		}
		dom := p.Ctx().Domain(val)
		if mx, _ := dom.Max(); mx > 1380 {
			t.Fatalf("VAL2 domain %v exceeds clamp", dom)
		}
	}
}

// TestSackStrippedForHTTP verifies the §8.5 finding: "SACK is disabled for
// HTTP traffic".
func TestSackStrippedForHTTP(t *testing.T) {
	http := sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.C(80))}
	res := runOptions(t, []uint64{minic.OptSackOK}, DefaultPolicy(), http)
	for _, p := range res.ByStatus(core.Delivered) {
		v, err := metaVal(p, "OPT4")
		if err != nil {
			t.Fatal(err)
		}
		if got, isConst := v.ConstVal(); !isConst || got != 0 {
			t.Fatalf("OPT4 = %v for HTTP, want stripped", v)
		}
	}
	// Non-HTTP traffic keeps SackOK.
	nonHTTP := sefl.Constrain{C: sefl.Ne(sefl.Ref{LV: sefl.TcpDst}, sefl.C(80))}
	res2 := runOptions(t, []uint64{minic.OptSackOK}, DefaultPolicy(), nonHTTP)
	kept := false
	for _, p := range res2.ByStatus(core.Delivered) {
		v, err := metaVal(p, "OPT4")
		if err != nil {
			t.Fatal(err)
		}
		if p.Ctx().Domain(v).Contains(1) {
			kept = true
		}
	}
	if !kept {
		t.Fatal("non-HTTP SackOK must be allowed through")
	}
}

// TestAllowedCombinations verifies "all allowed options are permitted in
// any combination" — including the timestamp option that Klee wrongly
// rejects at small buffer sizes.
func TestAllowedCombinations(t *testing.T) {
	kinds := []uint64{minic.OptMSS, minic.OptWScale, minic.OptSackOK, minic.OptTimestamp}
	nonHTTP := sefl.Constrain{C: sefl.Ne(sefl.Ref{LV: sefl.TcpDst}, sefl.C(80))}
	res := runOptions(t, kinds, DefaultPolicy(), nonHTTP)
	// Some delivered path must admit all four options simultaneously.
	found := false
	for _, p := range res.ByStatus(core.Delivered) {
		ctx := p.Ctx().CloneInto(new(solver.Context))
		sat := true
		for _, name := range []string{"OPT2", "OPT3", "OPT4", "OPT8"} {
			v, err := metaVal(p, name)
			if err != nil {
				sat = false
				break
			}
			if !ctx.Add(expr.NewCmp(expr.Eq, v, expr.Const(1, v.Width))) {
				sat = false
				break
			}
		}
		if sat && ctx.Sat() {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("all allowed options together must be feasible (Klee gets this wrong at 6B)")
	}
}

// TestDropOption verifies that a drop-class option kills the path.
func TestDropOption(t *testing.T) {
	res := runOptions(t, []uint64{minic.OptMD5}, DefaultPolicy(), nil)
	var dropped, delivered int
	for _, p := range res.Paths {
		switch p.Status {
		case core.Failed:
			if strings.Contains(p.FailMsg, "option 19") {
				dropped++
			}
		case core.Delivered:
			delivered++
		}
	}
	if dropped != 1 {
		t.Fatalf("dropped paths = %d, want 1 (OPT19 present)", dropped)
	}
	if delivered == 0 {
		t.Fatal("the OPT19-absent path must be delivered")
	}
}

// TestOptionsModelIsCheap verifies the headline claim: the SEFL model of
// the options code has near-optimal branching, unlike the mini-C version.
func TestOptionsModelIsCheap(t *testing.T) {
	kinds := []uint64{2, 3, 4, 5, 8, 19, 30}
	res := runOptions(t, kinds, DefaultPolicy(), nil)
	// Branching: drop If (2) x HTTP If (2) x MSS clamp If (2) ~ 8, far from
	// the exponential 2^40 of the C code.
	if res.Stats.Paths > 16 {
		t.Fatalf("options model explored %d paths; must stay near-constant", res.Stats.Paths)
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
hostname dept-asa
static-nat 10.0.0.5 141.85.37.5
dynamic-nat 141.85.37.2 1024-65535
access-list inbound permit tcp host 141.85.37.5 eq 80
access-list inbound deny any
access-list outbound permit any
tcp-options allow mss,wscale,sackok,sack,timestamp
tcp-options drop md5
tcp-options strip-sack-http
`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "dept-asa" || len(cfg.StaticNAT) != 1 || cfg.DynamicNAT == nil {
		t.Fatalf("config %+v", cfg)
	}
	if len(cfg.InboundACL) != 2 || !cfg.InboundACL[0].Permit || cfg.InboundACL[1].Permit {
		t.Fatalf("inbound ACL %+v", cfg.InboundACL)
	}
	if len(cfg.Options.Allow) != 5 || len(cfg.Options.Drop) != 1 {
		t.Fatalf("options %+v", cfg.Options)
	}
	if !cfg.Options.StripSackForHTTP {
		t.Fatal("strip-sack-http not parsed")
	}
}

// TestPipelineOutboundAndReturn drives a packet out through the ASA and a
// mirrored response back in: PAT must rewrite and restore, and the response
// of the active connection must be admitted without consulting the ACL.
func TestPipelineOutboundAndReturn(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
dynamic-nat 141.85.37.2 1024-65535
access-list inbound deny any
tcp-options allow mss,wscale,sackok,sack,timestamp
`))
	if err != nil {
		t.Fatal(err)
	}
	net := core.NewNetwork()
	el := net.AddElement("ASA", "asa", 2, 2)
	Build(el, cfg)
	mirror := net.AddElement("NET", "mirror", 1, 1)
	mirror.SetInCode(0, sefl.Seq(
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
	inside := net.AddElement("IN", "sink", 1, 0)
	inside.SetInCode(0, sefl.NoOp{})
	net.MustLink("ASA", 0, "NET", 0)
	net.MustLink("NET", 0, "ASA", 1)
	net.MustLink("ASA", 1, "IN", 0)
	res, err := core.Run(net, core.PortRef{Elem: "ASA", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := res.DeliveredAt("IN", 0)
	if len(paths) == 0 {
		for _, p := range res.Paths {
			t.Logf("path %d %v at %v: %s", p.ID, p.Status, p.Last(), p.FailMsg)
		}
		t.Fatal("return traffic of an active connection must be admitted")
	}
	// The restored destination port equals the original source port.
	p := paths[0]
	l4, _ := p.Mem.Tag(sefl.TagL4)
	srcHist, _ := p.Mem.HdrHistory(l4, 16)
	dst, _ := p.Mem.ReadHdr(l4+16, 16)
	if !dst.Equal(srcHist[0]) {
		t.Fatalf("restored TcpDst %v != original TcpSrc %v", dst, srcHist[0])
	}
}

// TestPipelineInboundBlocked: fresh inbound flows hit the ACL.
func TestPipelineInboundBlocked(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
access-list inbound deny any
tcp-options allow mss,wscale,sackok,sack,timestamp
`))
	if err != nil {
		t.Fatal(err)
	}
	net := core.NewNetwork()
	el := net.AddElement("ASA", "asa", 2, 2)
	Build(el, cfg)
	inside := net.AddElement("IN", "sink", 1, 0)
	inside.SetInCode(0, sefl.NoOp{})
	net.MustLink("ASA", 1, "IN", 0)
	res, err := core.Run(net, core.PortRef{Elem: "ASA", Port: 1}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeliveredAt("IN", 0)) != 0 {
		t.Fatal("inbound flow must be denied by the ACL")
	}
}

// TestPipelineStaticNATAdmission: inbound traffic to a static mapping's
// public address is admitted by a permit rule and rewritten.
func TestPipelineStaticNATAdmission(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
static-nat 10.0.0.5 141.85.37.5
access-list inbound permit tcp host 141.85.37.5 eq 80
access-list inbound deny any
tcp-options allow mss,wscale,sackok,sack,timestamp
`))
	if err != nil {
		t.Fatal(err)
	}
	net := core.NewNetwork()
	el := net.AddElement("ASA", "asa", 2, 2)
	Build(el, cfg)
	inside := net.AddElement("IN", "sink", 1, 0)
	inside.SetInCode(0, sefl.NoOp{})
	net.MustLink("ASA", 1, "IN", 0)
	res, err := core.Run(net, core.PortRef{Elem: "ASA", Port: 1}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := res.DeliveredAt("IN", 0)
	if len(paths) == 0 {
		t.Fatal("permitted inbound traffic must pass")
	}
	for _, p := range paths {
		dst, err := p.Mem.ReadHdr(112+128, 32)
		if err != nil {
			t.Fatal(err)
		}
		if got, isConst := dst.ConstVal(); !isConst || got != sefl.IPToNumber("10.0.0.5") {
			t.Fatalf("IPDst = %v, want rewritten to inside address", dst)
		}
		// Admission required port 80.
		tdst, _ := p.Mem.ReadHdr(272+16, 16)
		dom := p.Ctx().Domain(tdst)
		if dom.Size() != 1 || !dom.Contains(80) {
			t.Fatalf("TcpDst domain %v, want {80}", dom)
		}
	}
}
