package verify

import (
	"sync"
	"testing"

	"symnet/internal/core"
	"symnet/internal/sefl"
)

// passthroughPath runs a TCP packet through A, which admits TcpDst 80, and
// returns the one path delivered at B.
func passthroughPath(t *testing.T) *core.Path {
	t.Helper()
	net := core.NewNetwork()
	a := net.AddElement("A", "fwd", 1, 1)
	a.SetInCode(0, sefl.Seq(
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.C(80))},
		sefl.Forward{Port: 0},
	))
	b := net.AddElement("B", "sink", 1, 0)
	b.SetInCode(0, sefl.NoOp{})
	net.MustLink("A", 0, "B", 0)
	res, err := core.Run(net, core.PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reached := res.DeliveredAt("B", -1)
	if len(reached) != 1 {
		t.Fatalf("%d paths reach B, want 1", len(reached))
	}
	return reached[0]
}

func TestFieldDomainAndValue(t *testing.T) {
	p := passthroughPath(t)
	dom, err := FieldDomain(p, sefl.TcpDst)
	if err != nil {
		t.Fatal(err)
	}
	if dom.Size() != 1 || !dom.Contains(80) {
		t.Fatalf("TcpDst domain %v", dom)
	}
	if _, err := FieldValue(p, sefl.Hdr{Off: sefl.FromTag("NOPE", 0), Size: 8}); err == nil {
		t.Fatal("missing tag must error")
	}
}

func TestFieldEndToEndRewrite(t *testing.T) {
	net := core.NewNetwork()
	a := net.AddElement("A", "rewrite", 1, 1)
	a.SetInCode(0, sefl.Seq(
		sefl.Assign{LV: sefl.TcpDst, E: sefl.C(22)},
		sefl.Forward{Port: 0},
	))
	b := net.AddElement("B", "sink", 1, 0)
	b.SetInCode(0, sefl.NoOp{})
	net.MustLink("A", 0, "B", 0)
	res, err := core.Run(net, core.PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.DeliveredAt("B", 0)[0]
	inv, err := FieldInvariant(p, sefl.TcpDst)
	if err != nil {
		t.Fatal(err)
	}
	if inv {
		t.Fatal("rewritten field must not be invariant")
	}
	e2e, err := FieldEndToEnd(p, sefl.TcpDst)
	if err != nil {
		t.Fatal(err)
	}
	if e2e {
		t.Fatal("rewritten symbolic field cannot provably equal its original")
	}
	// An untouched field is both invariant and end-to-end equal.
	inv, _ = FieldInvariant(p, sefl.TcpSrc)
	e2e, _ = FieldEndToEnd(p, sefl.TcpSrc)
	if !inv || !e2e {
		t.Fatal("untouched field must be invariant")
	}
}

func TestFieldEndToEndForcedEqual(t *testing.T) {
	// Save, overwrite, restore: syntactically different final term that is
	// provably equal to the original (metadata round-trip).
	net := core.NewNetwork()
	a := net.AddElement("A", "saver", 1, 1)
	a.SetInCode(0, sefl.Seq(
		sefl.Allocate{LV: sefl.Meta{Name: "save"}, Size: 16},
		sefl.Assign{LV: sefl.Meta{Name: "save"}, E: sefl.Ref{LV: sefl.TcpDst}},
		sefl.Assign{LV: sefl.TcpDst, E: sefl.C(9)},
		sefl.Assign{LV: sefl.TcpDst, E: sefl.Ref{LV: sefl.Meta{Name: "save"}}},
		sefl.Forward{Port: 0},
	))
	b := net.AddElement("B", "sink", 1, 0)
	b.SetInCode(0, sefl.NoOp{})
	net.MustLink("A", 0, "B", 0)
	res, err := core.Run(net, core.PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.DeliveredAt("B", 0)[0]
	inv, _ := FieldInvariant(p, sefl.TcpDst)
	if inv {
		t.Fatal("rewriting makes the history non-constant")
	}
	e2e, err := FieldEndToEnd(p, sefl.TcpDst)
	if err != nil {
		t.Fatal(err)
	}
	if !e2e {
		t.Fatal("restored field must be provably equal end to end")
	}
}

func TestLoopsAndFailures(t *testing.T) {
	net := core.NewNetwork()
	for _, n := range []string{"A", "B"} {
		e := net.AddElement(n, "fwd", 1, 1)
		e.SetInCode(0, sefl.Forward{Port: 0})
	}
	net.MustLink("A", 0, "B", 0)
	net.MustLink("B", 0, "A", 0)
	res, err := core.Run(net, core.PortRef{Elem: "A", Port: 0}, sefl.NewTCPPacket(), core.Options{Loop: core.LoopFull})
	if err != nil {
		t.Fatal(err)
	}
	if loops, failures := res.ByStatus(core.Looped), res.ByStatus(core.Failed); len(loops) != 1 || len(failures) != 0 {
		t.Fatalf("loops=%d failures=%d", len(loops), len(failures))
	}
}

// lonePath injects a TCP packet at a host with no code and returns its one
// delivered path: nothing constrains its fields, so its context has seen
// none of their symbols.
func lonePath(t *testing.T) *core.Path {
	t.Helper()
	net := core.NewNetwork()
	net.AddElement("h", "host", 1, 0)
	res, err := core.Run(net, core.PortRef{Elem: "h"}, sefl.NewTCPPacket(), core.Options{})
	if err != nil || len(res.Paths) != 1 || res.Paths[0].Status != core.Delivered {
		t.Fatalf("%+v, %v; want one delivered path", res, err)
	}
	return res.Paths[0]
}

// TestFieldDomainWritesNothing: reading a field's domain leaves the path's
// context as it was, so the symbols its model covers do not change.
func TestFieldDomainWritesNothing(t *testing.T) {
	p := lonePath(t)
	before, _ := p.Ctx().Model()
	for _, f := range []sefl.Hdr{sefl.TcpSrc, sefl.TcpDst, sefl.IPSrc, sefl.IPDst} {
		d, err := FieldDomain(p, f)
		if err != nil {
			t.Fatal(err)
		}
		if d.Size() != 1<<f.Size {
			t.Fatalf("%s: domain %s, want every value", f, d)
		}
	}
	if after, _ := p.Ctx().Model(); len(after) != len(before) {
		t.Fatalf("FieldDomain changed the model from %v to %v", before, after)
	}
}

// TestFieldDomainConcurrentReaders: readers of a resident report share its
// paths, so many goroutines may ask one path for its domains at once (the
// race detector checks that none writes).
func TestFieldDomainConcurrentReaders(t *testing.T) {
	p := passthroughPath(t)
	want, err := FieldDomain(p, sefl.TcpDst)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				for _, f := range []sefl.Hdr{sefl.TcpSrc, sefl.TcpDst, sefl.IPSrc, sefl.IPDst, sefl.IPTTL} {
					d, err := FieldDomain(p, f)
					if err != nil {
						errs <- err.Error()
						return
					}
					if f == sefl.TcpDst && d.String() != want.String() {
						errs <- "TcpDst domain " + d.String() + ", want " + want.String()
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
