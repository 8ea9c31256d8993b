package core_test

import (
	"fmt"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/expr"
	"symnet/internal/obs"
	"symnet/internal/prog"
	"symnet/internal/sefl"
)

func init() {
	sefl.RegisterForBody("core_test.bump", func(string) func(sefl.Meta) sefl.Instr {
		return func(k sefl.Meta) sefl.Instr {
			return sefl.If{C: sefl.Eq(sefl.Ref{LV: k}, sefl.CW(1, 8)), Then: sefl.Assign{LV: k, E: sefl.CW(2, 8)}, Else: sefl.NoOp{}}
		}
	})
}

// compileCount reads prog.compile.count, the process's compiled programs.
func compileCount() int64 {
	reg := obs.NewRegistry()
	prog.RegisterMetrics(reg)
	return reg.Snapshot().Counters["prog.compile.count"]
}

// TestSecondDepartmentQueryCompilesNothing: every source of an all-pairs
// query injects the same packet, so the network compiles it once; a second
// query, with packets built anew, compiles no program at all.
func TestSecondDepartmentQueryCompilesNothing(t *testing.T) {
	d := datasets.NewDepartment(datasets.DefaultDepartment())
	sources, _ := d.AllPairs()
	query := func() int64 {
		before := compileCount()
		for _, src := range sources {
			if _, err := core.Run(d.Net, src, sefl.NewTCPPacket(), core.Options{MaxHops: 64}); err != nil {
				t.Fatal(err)
			}
		}
		return compileCount() - before
	}
	if first := query(); first == 0 {
		t.Fatal("the first query compiled nothing")
	}
	if second := query(); second != 0 {
		t.Fatalf("the second query compiled %d programs, want 0", second)
	}
}

// injectNet is three elements without code, so a packet injected at one is
// delivered there as the injection code left it.
func injectNet() *core.Network {
	net := core.NewNetwork()
	for _, name := range []string{"A", "B", "C"} {
		net.AddElement(name, "sink", 1, 0)
	}
	return net
}

// injectImage renders what a run left on its paths: status, failure, every
// metadata entry with the instance it belongs to, and the trace.
func injectImage(t *testing.T, res *core.Result) string {
	t.Helper()
	s := runFingerprint(t, res)
	for _, p := range res.Paths {
		for _, m := range p.Mem.MetaEntries() {
			s += fmt.Sprintf("%s@%d=%s/%t ", m.Key.Name, m.Key.Instance, m.Val, m.Set)
		}
		s += "\n" + strings.Join(p.Trace, "\n") + "\n"
	}
	return s
}

// TestInjectionThatReadsItsElement: code that resolves a Local metadata key,
// or holds a For, reads the element it runs at, so a run at another element
// must not reuse the program compiled for the last one. Each run, on one
// network at A, B, A and C in turn, gives what a run on a fresh network
// gives.
func TestInjectionThatReadsItsElement(t *testing.T) {
	local := sefl.Meta{Name: "x", Local: true}
	opt := sefl.Meta{Name: "OPT1"}
	for name, code := range map[string]func() sefl.Instr{
		"local": func() sefl.Instr {
			return sefl.Seq(sefl.Allocate{LV: local, Size: 8}, sefl.Assign{LV: local, E: sefl.CW(5, 8)})
		},
		"for": func() sefl.Instr {
			return sefl.Seq(sefl.Allocate{LV: opt, Size: 8}, sefl.Assign{LV: opt, E: sefl.Symbolic{W: 8, Name: "o"}},
				sefl.NewFor(`^OPT\d+$`, "core_test.bump", ""))
		},
	} {
		net := injectNet()
		for _, at := range []string{"A", "B", "A", "C"} {
			inj := core.PortRef{Elem: at}
			opts := core.Options{Trace: true}
			got, err := core.Run(net, inj, code(), opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(injectNet(), inj, code(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := injectImage(t, got), injectImage(t, want); g != w {
				t.Fatalf("%s at %s: the run differs from a fresh network's:\n%s\nwant\n%s", name, at, g, w)
			}
		}
	}
}

// TestInjectionTraceNamesItsElement: the program compiled at A runs at B
// through a header of B's own, so its trace lines name B.
func TestInjectionTraceNamesItsElement(t *testing.T) {
	net := injectNet()
	before := compileCount()
	for _, at := range []string{"A", "B", "A"} {
		res, err := core.Run(net, core.PortRef{Elem: at}, sefl.NewTCPPacket(), core.Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Paths {
			if len(p.Trace) == 0 {
				t.Fatalf("run at %s: path %d has no trace", at, p.ID)
			}
			for _, line := range p.Trace {
				if !strings.HasPrefix(line, at+": ") {
					t.Fatalf("run at %s: trace line %q", at, line)
				}
			}
		}
	}
	if n := compileCount() - before; n != 1 {
		t.Fatalf("three runs of one packet compiled %d programs, want 1", n)
	}
}

// TestInjectionEditedAfterRunRecompiles: the network keeps its own copy of
// the code it compiled, so code the caller edits in place after a run is
// new code: the next run compiles it and runs what it says now.
func TestInjectionEditedAfterRunRecompiles(t *testing.T) {
	net := injectNet()
	inj := core.PortRef{Elem: "A"}
	run := func(code sefl.Instr) *core.Path {
		t.Helper()
		res, err := core.Run(net, inj, code, core.Options{})
		if err != nil || len(res.Paths) != 1 {
			t.Fatalf("%+v, %v; want one path", res, err)
		}
		return res.Paths[0]
	}

	block := sefl.Block{Is: []sefl.Instr{sefl.NoOp{}, sefl.Fail{Msg: "first"}}}
	if p := run(block); p.FailMsg != "first" {
		t.Fatalf("failed with %q, want first", p.FailMsg)
	}
	block.Is[1] = sefl.Fail{Msg: "second"}
	before := compileCount()
	if p := run(block); p.FailMsg != "second" {
		t.Fatalf("after the edit the run failed with %q, want second: the program went stale", p.FailMsg)
	}
	if n := compileCount() - before; n != 1 {
		t.Fatalf("the edited code compiled %d times, want 1", n)
	}

	rows := []expr.GuardRow{{Kind: expr.GuardEq, V: 7}}
	guarded := sefl.Seq(sefl.NewIPPacket(), sefl.Constrain{C: sefl.Table{F: sefl.IPDst, Rows: rows}})
	if p := run(guarded); p.Status != core.Delivered {
		t.Fatalf("guarded packet: %s %q, want delivered", p.Status, p.FailMsg)
	}
	rows[0].Kind = 99 // a row of no kind: the table is malformed
	if p := run(guarded); p.Status != core.Failed || !strings.Contains(p.FailMsg, "unknown kind 99") {
		t.Fatalf("after the edit: %s %q, want the malformed table's failure", p.Status, p.FailMsg)
	}
}
