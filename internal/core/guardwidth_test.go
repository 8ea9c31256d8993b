package core

import (
	"strings"
	"testing"

	"symnet/internal/expr"
	"symnet/internal/sefl"
)

// runBoth runs inject through one element whose input code is code, linked
// to a sink, under the compiled program and the AST interpreter, and returns
// both results after checking they agree on every observable.
func runBoth(t *testing.T, code, inject sefl.Instr) *Result {
	t.Helper()
	net := NewNetwork()
	net.AddElement("dut", "dut", 1, 1).SetInCode(0, sefl.Seq(code, sefl.Forward{Port: 0}))
	sink(net, "s")
	net.MustLink("dut", 0, "s", 0)
	var res [2]*Result
	for i, ast := range []bool{false, true} {
		r, err := Run(net, PortRef{Elem: "dut", Port: 0}, inject, Options{ASTInterp: ast})
		if err != nil {
			t.Fatal(err)
		}
		res[i] = r
	}
	if got, want := resultBytes(res[0]), resultBytes(res[1]); got != want {
		t.Fatalf("compiled program differs from the AST interpreter:\n%s\nwant\n%s", got, want)
	}
	return res[0]
}

// wantFailed checks that res is one failed path whose message contains msg.
func wantFailed(t *testing.T, what string, res *Result, msg string) {
	t.Helper()
	if len(res.Paths) != 1 || res.Paths[0].Status != Failed || !strings.Contains(res.Paths[0].FailMsg, msg) {
		t.Fatalf("%s: stats %+v, want one failed path naming %q", what, res.Stats, msg)
	}
}

// TestPrefixAtItsOwnWidth: a prefix reads its subject at its own width (32
// bits when Width is zero), and a subject of another width fails the path
// naming both widths in either executor, as a table guard read at another
// width does — 10.0.0.0/8 on the 16-bit TcpDst is no match on its low byte.
func TestPrefixAtItsOwnWidth(t *testing.T) {
	dport := sefl.Ref{LV: sefl.TcpDst}
	res := runBoth(t, sefl.Constrain{C: sefl.Prefix{E: dport, Value: 0x0a000000, Len: 8}}, sefl.NewTCPPacket())
	wantFailed(t, "32-bit prefix on TcpDst", res, "32-bit prefix read a 16-bit value")

	res = runBoth(t, sefl.Constrain{C: sefl.Prefix{E: dport, Value: 0x0a00, Len: 8, Width: 16}}, sefl.NewTCPPacket())
	if res.Stats.Delivered != 1 {
		t.Fatalf("16-bit prefix on TcpDst: stats %+v, want one delivery", res.Stats)
	}
	res = runBoth(t, sefl.Constrain{C: sefl.Prefix{E: sefl.CW(5, 8), Value: 0, Len: 4}}, sefl.NewTCPPacket())
	wantFailed(t, "32-bit prefix on an 8-bit constant", res, "32-bit prefix read a 8-bit value")
}

// TestMalformedTableFails: a table with a row longer than its field fails
// the path with Check's message in either executor; neither evaluates the
// Or-tree it would stand for.
func TestMalformedTableFails(t *testing.T) {
	tb := sefl.Table{F: sefl.IPDst, Rows: []expr.GuardRow{
		{Kind: expr.GuardPrefix, V: 0x0a000000, Len: 8},
		{Kind: expr.GuardPrefix, V: 0x0b000000, Len: 40},
	}}
	res := runBoth(t, sefl.Constrain{C: tb}, sefl.NewTCPPacket())
	wantFailed(t, "malformed table", res, tb.Check().Error())
}
