package prog_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/models"
	"symnet/internal/prog"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// routerNet is a router whose FIB routes to one sink per port, with the
// packet injected at its input.
func routerNet(t *testing.T, fib tables.FIB) *core.Network {
	t.Helper()
	n := core.NewNetwork()
	ports := slices.Max(fib.Ports()) + 1
	rt := n.AddElement("rt", "router", 1, ports)
	if err := models.Router(rt, fib, models.Egress); err != nil {
		t.Fatal(err)
	}
	for p := range ports {
		sink := n.AddElement(fmt.Sprintf("net%d", p), "sink", 1, 0)
		sink.SetInCode(0, sefl.NoOp{})
		n.MustLink("rt", p, sink.Name, 0)
	}
	return n
}

// portTable returns the table guard of rt.out[port].
func portTable(t *testing.T, n *core.Network, port int) sefl.Table {
	t.Helper()
	rt, _ := n.Element("rt")
	code, _ := rt.Code(port, true)
	c, ok := code.(sefl.Constrain)
	if !ok {
		t.Fatalf("rt.out[%d] code is %T, want a Constrain", port, code)
	}
	tbl, ok := c.C.(sefl.Table)
	if !ok {
		t.Fatalf("rt.out[%d] guard is %T, want a table", port, c.C)
	}
	return tbl
}

// failMsgsAt returns the failure messages of the paths that failed at
// rt.out[port], in path order.
func failMsgsAt(res *core.Result, port int) []string {
	var msgs []string
	for _, p := range res.Paths {
		h := p.History()
		if p.Status == core.Failed && len(h) > 0 && h[len(h)-1] == (core.PortRef{Elem: "rt", Port: port, Out: true}) {
			msgs = append(msgs, p.FailMsg)
		}
	}
	return msgs
}

// decodedNet is n as a fleet member rebuilds it: the topology and every
// port's source through the wire codec.
func decodedNet(t *testing.T, n *core.Network) *core.Network {
	t.Helper()
	wire, err := core.EncodeNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := core.EncodePrograms(n)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := core.DecodeNetwork(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.InstallPrograms(decoded, progs); err != nil {
		t.Fatal(err)
	}
	return decoded
}

// TestTableFailMsgIsItsSpanTable: a refuted table guard fails with its
// field and span table, not its rows. Two FIBs whose port-0 tables have
// other rows (a /16 inside the /8 on the same port) but one span table make
// the compiled engine, the AST interpreter and a fleet member's decoded
// network (whose tables carry no span table) fail with one message, on a
// packet no port-0 route admits.
func TestTableFailMsgIsItsSpanTable(t *testing.T) {
	fibs := []tables.FIB{
		{{Prefix: 0x0A000000, Len: 8, Port: 0}, {Prefix: 0, Len: 0, Port: 1}},
		{{Prefix: 0x0A000000, Len: 8, Port: 0}, {Prefix: 0x0A050000, Len: 16, Port: 0}, {Prefix: 0, Len: 0, Port: 1}},
	}
	a, b := portTable(t, routerNet(t, fibs[0]), 0), portTable(t, routerNet(t, fibs[1]), 0)
	if len(a.Rows) == len(b.Rows) || !a.SpanTable().Equal(b.SpanTable()) {
		t.Fatalf("test premise: want other rows and one span table:\n%v\n%v", a, b)
	}
	want := "constraint unsatisfiable: IPDst in {167772160-184549375}:w32"
	if got := prog.UnsatMsg(a); got != want {
		t.Fatalf("UnsatMsg = %q, want %q", got, want)
	}
	packet := sefl.Seq(sefl.NewTCPPacket(),
		sefl.Constrain{C: sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: sefl.IPToNumber("20.0.0.0"), Len: 8}})
	inject := core.PortRef{Elem: "rt", Port: 0}
	for _, fib := range fibs {
		decoded := decodedNet(t, routerNet(t, fib))
		if portTable(t, decoded, 0).Spans != nil {
			t.Fatal("test premise: a decoded table carries a span table")
		}
		for _, run := range []struct {
			name string
			net  *core.Network
			opts core.Options
		}{
			{"compiled", routerNet(t, fib), core.Options{}},
			{"AST", routerNet(t, fib), core.Options{ASTInterp: true}},
			{"decoded", decoded, core.Options{}},
		} {
			res, err := core.Run(run.net, inject, packet, run.opts)
			if err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			msgs := failMsgsAt(res, 0)
			if len(msgs) == 0 || slices.IndexFunc(msgs, func(m string) bool { return m != want }) >= 0 {
				t.Errorf("%d-row FIB, %s run: rt.out[0] failures %q, want %q", len(fib), run.name, msgs, want)
			}
		}
	}
}

// TestTableFailMsgIsBounded: a table of many spans prints four, then the
// count, however many rows it has; a condition other than a table keeps
// rendering as written.
func TestTableFailMsgIsBounded(t *testing.T) {
	var fib tables.FIB
	for i := range 200 {
		fib = append(fib, tables.Route{Prefix: uint64(10)<<24 | uint64(2*i)<<8, Len: 24, Port: 0})
	}
	fib = append(fib, tables.Route{Prefix: 0, Len: 0, Port: 1})
	msg := prog.UnsatMsg(portTable(t, routerNet(t, fib), 0))
	if !strings.HasSuffix(msg, ",… 200 spans}:w32") || strings.Count(msg, ",") != 4 {
		t.Errorf("200-span table renders as %q", msg)
	}
	c := sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.C(1))
	if got, want := prog.UnsatMsg(c), fmt.Sprintf("constraint unsatisfiable: %s", c); got != want {
		t.Errorf("UnsatMsg(%v) = %q, want %q", c, got, want)
	}
}

// TestTableTraceLineIsBounded: traced, a port of a 62 500-route core FIB
// spread over 16 ports, whose table holds thousands of rows, traces as its
// field and span table, which SpanTable.String bounds: four spans, then the
// count.
func TestTableTraceLineIsBounded(t *testing.T) {
	const port = 3
	net := routerNet(t, datasets.CoreFIB(62500, 16, 1))
	tbl := portTable(t, net, port)
	if len(tbl.Rows) < 1000 {
		t.Fatalf("test premise: rt.out[%d] has %d rows, want thousands", port, len(tbl.Rows))
	}
	// A packet bound for the port's first span reaches the port's guard
	// and passes it.
	first := tbl.SpanTable().Spans()[0]
	packet := sefl.Seq(sefl.NewTCPPacket(),
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.C(first.Lo))})
	res, err := core.Run(net, core.PortRef{Elem: "rt", Port: 0}, packet, core.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("rt: Constrain(IPDst in %s)", tbl.SpanTable())
	if !strings.Contains(want, "spans}:w32") || len(want) > 160 {
		t.Fatalf("span table renders unbounded: %q", want)
	}
	traced := 0
	for _, p := range res.Paths {
		for _, line := range p.Trace {
			if len(line) > 160 {
				t.Fatalf("path %d: trace line of %d bytes: %.200s…", p.ID, len(line), line)
			}
			if line == want {
				traced++
			}
		}
	}
	if traced != 1 {
		t.Fatalf("%d paths trace rt.out[%d]'s guard as %q, want 1", traced, port, want)
	}
}
