package core

import (
	"fmt"
	"runtime"
	"testing"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// guardedFork is a router-shaped element: its input forks the packet to
// three output ports, each guarded by a Constrain on IPDst (10.0.0.p). The
// packet is injected with IPDst pinned to 10.0.0.2, so ports 0 and 1 refute
// it before anything runs and only port 2 lets it through.
func guardedFork(t *testing.T) (*Network, PortRef, sefl.Instr) {
	t.Helper()
	net := NewNetwork()
	r := net.AddElement("R", "router", 1, 3).SetInCode(0, sefl.Fork{Ports: []int{0, 1, 2}})
	for p := 0; p < 3; p++ {
		r.SetOutCode(p, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.IP(fmt.Sprintf("10.0.0.%d", p)))})
		sink(net, fmt.Sprintf("S%d", p))
		net.MustLink("R", p, fmt.Sprintf("S%d", p), 0)
	}
	inject := sefl.Seq(sefl.NewTCPPacket(), sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.IP("10.0.0.2"))})
	return net, PortRef{Elem: "R", Port: 0}, inject
}

// TestRefutedPortsShareSealedMem pins the departure that clones nothing for
// a port whose guard the domains refute: the result is byte-identical to
// the AST interpreter's, which clones every port and refutes the guard on
// the clone; the refuted ports' paths share one sealed memory and one
// frozen context, distinct from the surviving path's, and each read of
// their context builds its own; and a write through a clone of that memory
// leaves both siblings' fields as they were.
func TestRefutedPortsShareSealedMem(t *testing.T) {
	net, inj, inject := guardedFork(t)
	res, err := Run(net, inj, inject, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(net, inj, inject, Options{ASTInterp: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultBytes(res), resultBytes(ref); got != want {
		t.Fatalf("refuted departures differ from the cloning reference:\n%s\nwant\n%s", got, want)
	}
	failed, delivered := res.ByStatus(Failed), res.ByStatus(Delivered)
	if len(failed) != 2 || len(delivered) != 1 {
		t.Fatalf("want ports 0 and 1 refuted and port 2 delivered, got %+v", res.Stats)
	}
	a, b := failed[0], failed[1]
	switch {
	case a.Mem != b.Mem:
		t.Fatal("the refuted siblings of one departure have a memory each")
	case a.Mem == delivered[0].Mem:
		t.Fatal("a refuted path shares the memory of the path that left")
	case a.ctx != b.ctx:
		t.Fatal("the refuted siblings of one departure keep a context each")
	case a.ctx == delivered[0].ctx:
		t.Fatal("a refuted path shares the context of the path that left")
	case a.Ctx() == b.Ctx() || a.Ctx() == a.Ctx():
		t.Fatal("two reads of refuted paths' contexts share one")
	}

	l3, ok := a.Mem.Tag(sefl.TagL3)
	if !ok {
		t.Fatal("no L3 tag on the refuted path")
	}
	dst := l3 + sefl.IPDst.Off.Rel
	before, err := a.Mem.ReadHdr(dst, 32)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Mem.CloneInto(new(memory.Mem))
	if err := w.AssignHdr(dst, 32, expr.Const(7, 32)); err != nil {
		t.Fatal(err)
	}
	for _, p := range failed {
		if v, err := p.Mem.ReadHdr(dst, 32); err != nil || v != before {
			t.Fatalf("path %d: IPDst %v (%v) after a write through a clone, want %v", p.ID, v, err, before)
		}
	}
	if v, _ := w.ReadHdr(dst, 32); v != expr.Const(7, 32) {
		t.Fatalf("the clone reads %v after writing 7", v)
	}
}

// TestRefutedPathDoesNotPinState keeps the departing state out of what a
// refuted port's path keeps: the Path and its last history node are one
// allocation, and the departure's memory and context one more, that live as
// long as the Path, and with the state reachable from them every resident
// refuted path would keep a state it no longer needs.
func TestRefutedPathDoesNotPinState(t *testing.T) {
	r := &run{}
	e := NewNetwork().AddElement("R", "router", 1, 2)
	freed := make(chan struct{})
	func() {
		st := &state{Mem: new(memory.Mem), Ctx: solver.NewContext(nil)}
		st.pushHistory(e.at(0, false))
		runtime.SetFinalizer(st, func(*state) { close(freed) })
		r.departRefuted(st, st.box(), e.at(1, true), expr.Bool(false), "refuted")
	}()
	if !collected(freed) {
		t.Fatal("a departing State is still reachable from its refuted port's Path")
	}
	p := r.paths[0]
	if p.Status != Failed || r.stats.Failed != 1 || len(p.History()) != 2 || p.CtxFp() == (expr.Fp{}) {
		t.Fatalf("refuted path %+v, history %v, stats %+v", p, p.History(), r.stats)
	}
}
