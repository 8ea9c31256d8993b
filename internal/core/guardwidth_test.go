package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"symnet/internal/expr"
	"symnet/internal/sefl"
)

// runBoth runs inject through one element whose input code is code, linked
// to a sink, under the compiled program and the AST interpreter, traced when
// trace is set, and returns the compiled result after checking that both
// agree on every observable.
func runBoth(t *testing.T, code, inject sefl.Instr, trace bool) *Result {
	t.Helper()
	net := NewNetwork()
	net.AddElement("dut", "dut", 1, 1).SetInCode(0, sefl.Seq(code, sefl.Forward{Port: 0}))
	sink(net, "s")
	net.MustLink("dut", 0, "s", 0)
	var res [2]*Result
	for i, ast := range []bool{false, true} {
		r, err := Run(net, PortRef{Elem: "dut", Port: 0}, inject, Options{ASTInterp: ast, Trace: trace})
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
	res := runBoth(t, sefl.Constrain{C: sefl.Prefix{E: dport, Value: 0x0a000000, Len: 8}}, sefl.NewTCPPacket(), false)
	wantFailed(t, "32-bit prefix on TcpDst", res, "32-bit prefix read a 16-bit value")

	res = runBoth(t, sefl.Constrain{C: sefl.Prefix{E: dport, Value: 0x0a00, Len: 8, Width: 16}}, sefl.NewTCPPacket(), false)
	if res.Stats.Delivered != 1 {
		t.Fatalf("16-bit prefix on TcpDst: stats %+v, want one delivery", res.Stats)
	}
	res = runBoth(t, sefl.Constrain{C: sefl.Prefix{E: sefl.CW(5, 8), Value: 0, Len: 4}}, sefl.NewTCPPacket(), false)
	wantFailed(t, "32-bit prefix on an 8-bit constant", res, "32-bit prefix read a 8-bit value")
}

// TestMalformedTableFails: a table with a row longer than its field fails
// the path with Check's message in either executor, as a Constrain and as
// an If's guard; neither evaluates the Or-tree it would stand for. Traced,
// its trace line renders the field and Check's message in place of a span
// table.
func TestMalformedTableFails(t *testing.T) {
	tb := sefl.Table{F: sefl.IPDst, Rows: []expr.GuardRow{
		{Kind: expr.GuardPrefix, V: 0x0a000000, Len: 8},
		{Kind: expr.GuardPrefix, V: 0x0b000000, Len: 40},
	}}
	for _, code := range []sefl.Instr{sefl.Constrain{C: tb}, sefl.If{C: tb, Then: sefl.NoOp{}, Else: sefl.NoOp{}}} {
		for _, trace := range []bool{false, true} {
			res := runBoth(t, code, sefl.NewTCPPacket(), trace)
			wantFailed(t, fmt.Sprintf("malformed table in %T, trace=%v", code, trace), res, tb.Check().Error())
			if line := "dut: " + code.String(); trace && !slices.Contains(res.Paths[0].Trace, line) {
				t.Fatalf("traced %T: trace %q lacks %q", code, res.Paths[0].Trace, line)
			}
		}
	}
	if got, want := tb.String(), "IPDst in malformed("+tb.Check().Error()+")"; got != want {
		t.Fatalf("malformed table renders %q, want %q", got, want)
	}
}
