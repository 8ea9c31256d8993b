package core

import (
	"fmt"
	"strings"
	"testing"

	"symnet/internal/obs"
	"symnet/internal/sefl"
)

// resultBytes renders every observable of a run: path IDs, statuses,
// messages, histories, traces, memory, the constraint context's chained
// fingerprint and pending disjunctions, and the run statistics.
func resultBytes(res *Result) string {
	var b strings.Builder
	for _, p := range res.Paths {
		fmt.Fprintf(&b, "#%d %s %q", p.ID, p.Status, p.FailMsg)
		for _, h := range p.History() {
			fmt.Fprintf(&b, " %s", h)
		}
		for _, line := range p.Trace {
			fmt.Fprintf(&b, " T:%s", line)
		}
		for _, f := range p.Mem.Fields() {
			fmt.Fprintf(&b, " @%d/%d=%v:%v", f.Off, f.Size, f.Val, f.Set)
		}
		for _, me := range p.Mem.MetaEntries() {
			fmt.Fprintf(&b, " m[%s]=%v:%v", me.Key, me.Val, me.Set)
		}
		fp := p.Ctx().Fingerprint()
		fmt.Fprintf(&b, " ctx=%x.%x pend=%d\n", fp.Hi, fp.Lo, p.Ctx().PendingOrs())
	}
	fmt.Fprintf(&b, "stats %+v\n", res.Stats)
	return b.String()
}

// TestConstantBranchMatchesClone pins the no-clone settlement of a branch on
// a constant guard: a MetaPresent If, with the key present and with it
// absent (and once more under a pending disjunction, so the live side's Sat
// runs), gives byte-identical results, Stats and Pruned under the compiled
// program and the AST interpreter, which still clones and refutes the dead
// side.
func TestConstantBranchMatchesClone(t *testing.T) {
	flag := sefl.Meta{Name: "flag"}
	dst := sefl.Ref{LV: sefl.IPDst}
	code := sefl.If{
		C: sefl.MetaPresent{M: flag},
		Then: sefl.Seq(
			sefl.Assign{LV: sefl.TcpDst, E: sefl.C(22)},
			sefl.If{C: sefl.Lt(dst, sefl.C(10)), Then: sefl.Forward{Port: 0}, Else: sefl.Forward{Port: 1}},
		),
		Else: sefl.If{
			C:    sefl.MetaPresent{M: sefl.Meta{Name: "other"}},
			Then: sefl.Fail{Msg: "unreachable"},
			Else: sefl.Forward{Port: 1},
		},
	}
	present := sefl.Seq(sefl.Allocate{LV: flag, Size: 8}, sefl.Assign{LV: flag, E: sefl.CW(1, 8)})
	pendingOr := sefl.Constrain{C: sefl.OrC(
		sefl.Eq(dst, sefl.IP("10.0.0.1")),
		sefl.Eq(sefl.Ref{LV: sefl.TcpSrc}, sefl.C(80)),
	)}
	cases := []struct {
		name   string
		inject sefl.Instr
	}{
		{"present", sefl.Seq(sefl.NewTCPPacket(), present)},
		{"absent", sefl.NewTCPPacket()},
		{"present, pending Or", sefl.Seq(sefl.NewTCPPacket(), present, pendingOr)},
		{"absent, pending Or", sefl.Seq(sefl.NewTCPPacket(), pendingOr)},
	}
	for _, tc := range cases {
		net := NewNetwork()
		net.AddElement("dut", "dut", 1, 2).SetInCode(0, code)
		sink(net, "s0")
		sink(net, "s1")
		net.MustLink("dut", 0, "s0", 0)
		net.MustLink("dut", 1, "s1", 0)
		inj := PortRef{Elem: "dut", Port: 0}

		run := func(opts Options) *Result {
			opts.Trace = true
			res, err := Run(net, inj, tc.inject, opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return res
		}
		ast := run(Options{ASTInterp: true})
		reg := obs.NewRegistry()
		compiled := run(Options{Obs: obs.New(reg, nil)})
		if hits := reg.Snapshot().Counters["core.progcache.misses"]; hits < 1 {
			t.Fatalf("%s: dut not executed as a compiled program", tc.name)
		}
		if got, want := resultBytes(compiled), resultBytes(ast); got != want {
			t.Errorf("%s: compiled program differs from the cloning reference:\n%s\nwant\n%s", tc.name, got, want)
		}
		if ast.Stats.Pruned < 1 || ast.Stats.Delivered < 1 {
			t.Errorf("%s: stats %+v, want a pruned constant side and a delivery", tc.name, ast.Stats)
		}
	}
}

// TestTagPresentBranch: an If on a tag's presence takes the Then side on a
// packet with the tag and the Else side on one without it, with
// byte-identical results under the compiled program and the AST
// interpreter.
func TestTagPresentBranch(t *testing.T) {
	code := sefl.If{C: sefl.TagPresent{Tag: sefl.TagL2}, Then: sefl.Forward{Port: 0}, Else: sefl.Forward{Port: 1}}
	for _, tc := range []struct {
		name   string
		inject sefl.Instr
		want   string
	}{
		{"with L2", sefl.NewTCPPacket(), "s0"},
		{"without L2", sefl.Seq(sefl.NewTCPPacket(), sefl.DestroyTag{Name: sefl.TagL2}), "s1"},
	} {
		net := NewNetwork()
		net.AddElement("dut", "dut", 1, 2).SetInCode(0, code)
		sink(net, "s0")
		sink(net, "s1")
		net.MustLink("dut", 0, "s0", 0)
		net.MustLink("dut", 1, "s1", 0)
		var results []*Result
		for _, opts := range []Options{{}, {ASTInterp: true}} {
			opts.Trace = true
			res, err := Run(net, PortRef{Elem: "dut", Port: 0}, tc.inject, opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			results = append(results, res)
		}
		if got, want := resultBytes(results[0]), resultBytes(results[1]); got != want {
			t.Errorf("%s: compiled program differs from the AST interpreter:\n%s\nwant\n%s", tc.name, got, want)
		}
		res := results[0]
		if res.Stats.Delivered != 1 || len(res.Paths) != 1 || res.Paths[0].History()[len(res.Paths[0].History())-1].Elem != tc.want {
			t.Errorf("%s: want one path delivered at %s:\n%s", tc.name, tc.want, resultBytes(res))
		}
	}
}
