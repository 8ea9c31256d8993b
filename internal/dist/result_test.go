package dist

// Result-frame tests: a packed result, shipped and unpacked, is exactly the
// Summary Summarize builds; a malformed one is refused with a pointed error;
// and the department batch's answer stays small.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"strings"
	"sync"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/sefl"
)

var department struct {
	once    sync.Once
	names   []string
	results []*core.Result
	err     error
}

// departmentResults runs the all-pairs sources of the paper-scale department
// (15 access switches, 6000 MACs, 400 routes: the benchmark's, 16 sources)
// once per test binary.
func departmentResults(t *testing.T) ([]string, []*core.Result) {
	t.Helper()
	department.once.Do(func() {
		d := datasets.NewDepartment(datasets.DefaultDepartment())
		srcs, _ := d.AllPairs()
		for _, s := range srcs {
			res, err := core.Run(d.Net, s, sefl.NewTCPPacket(), core.Options{MaxHops: 64})
			if err != nil {
				department.err = err
				return
			}
			department.names = append(department.names, s.String())
			department.results = append(department.results, res)
		}
	})
	if department.err != nil {
		t.Fatal(department.err)
	}
	return department.names, department.results
}

func mustRun(t testing.TB, net *core.Network, inject core.PortRef, pkt sefl.Instr, opts core.Options) *core.Result {
	t.Helper()
	res, err := core.Run(net, inject, pkt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultFrames is the one-frame stream a worker sends for a result.
func resultFrames(w *wireSummary) []*frame {
	return []*frame{{Kind: frameResult, Result: &resultFrame{Name: "job", Summary: w}}}
}

// recvResult decodes a result stream the way the pool's reader does.
func recvResult(t *testing.T, frames []*frame, trailing []byte) *wireSummary {
	t.Helper()
	f, err := newConn(encodeInput(t, frames, trailing), io.Discard).recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Result == nil || f.Result.Summary == nil {
		t.Fatalf("frame %+v carries no summary", f)
	}
	return f.Result.Summary
}

// TestResultFrameMatchesSummarize pins the result encoding to the reference:
// a Result packed by the worker, gob-framed and unpacked by the coordinator
// is JSON-identical to Summarize of the same Result — on every department
// source, the backbone, fork-heavy, a traced run and a run with a path that
// never reached a port. Each unpacked path's Ports and Trace are capped at
// their length, so appending to one never writes into its neighbour.
func TestResultFrameMatchesSummarize(t *testing.T) {
	type run struct {
		name    string
		res     *core.Result
		maxHops int
	}
	var runs []run
	names, results := departmentResults(t)
	for i, res := range results {
		runs = append(runs, run{"department " + names[i], res, 64})
	}
	bb := datasets.StanfordBackbone(5, 40)
	srcs, _ := bb.AllPairs()
	for _, s := range srcs {
		runs = append(runs, run{"backbone " + s.String(), mustRun(t, bb.Net, s, sefl.NewIPPacket(), core.Options{}), 0})
	}
	fnet, finj := datasets.ForkHeavy(6, 2, 4)
	runs = append(runs,
		run{"forkheavy", mustRun(t, fnet, finj, sefl.NewTCPPacket(), core.Options{MaxHops: 1 << 12}), 1 << 12},
		run{"forkheavy traced", mustRun(t, fnet, finj, sefl.NewTCPPacket(), core.Options{MaxHops: 1 << 12, Trace: true}), 1 << 12})
	// Half the packets fail in their injection code, before the first port.
	net, jobs := testFleetNet()
	dropAA := sefl.Seq(sefl.NewEthernetPacket(), sefl.If{
		C:    sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(0xaa, 48)),
		Then: sefl.Fail{Msg: "dropped at injection"},
		Else: sefl.NoOp{},
	})
	empty := mustRun(t, net, jobs[0].Inject, dropAA, core.Options{})
	runs = append(runs, run{"empty history", empty, 0})
	if len(empty.Paths[0].History()) != 0 || len(empty.Paths) < 2 {
		t.Fatalf("test premise: want an empty-history path among others, got %d paths, first %v", len(empty.Paths), empty.Paths[0].History())
	}

	for _, r := range runs {
		want := Summarize(r.res)
		got, err := recvResult(t, resultFrames(packSummary(r.res)), nil).unpack(r.maxHops, 0)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !jsonEq(t, got, want) {
			t.Errorf("%s: unpacked result frame differs from Summarize", r.name)
			continue
		}
		// Append to every path in turn; had a path's slice reached into the
		// next one's, that neighbour would now start with the sentinel.
		for i := range got.Paths {
			p := &got.Paths[i]
			p.Ports = append(p.Ports, core.PortRef{Elem: "appended"})
			p.Trace = append(p.Trace, "appended")
		}
		for i := range got.Paths {
			p, w := &got.Paths[i], &want.Paths[i]
			p.Ports, p.Trace = p.Ports[:len(w.Ports)], p.Trace[:len(w.Trace)]
			if w.Ports == nil {
				p.Ports = nil
			}
			if w.Trace == nil {
				p.Trace = nil
			}
		}
		if !jsonEq(t, got, want) {
			t.Errorf("%s: appending to one unpacked path changed another", r.name)
		}
	}
}

// TestVisitedPortsMatchHistories pins JobResult.VisitedPorts to the union of
// its paths' histories, each port yielded once, whether the job's outcome is
// a live Result or a fleet's Summary: on ForkHeavy(64,4,8), whose 4 096
// paths share one history tree, and on every department source.
func TestVisitedPortsMatchHistories(t *testing.T) {
	fnet, finj := datasets.ForkHeavy(64, 4, 8)
	runs := map[string]*core.Result{"forkheavy": mustRun(t, fnet, finj, sefl.NewIPPacket(), core.Options{})}
	names, results := departmentResults(t)
	for i, res := range results {
		runs["department "+names[i]] = res
	}
	for name, res := range runs {
		want := map[core.PortRef]bool{}
		for _, p := range res.Paths {
			for _, pr := range p.History() {
				want[pr] = true
			}
		}
		for _, jr := range []*JobResult{{Result: res}, {Summary: Summarize(res)}} {
			got := map[core.PortRef]bool{}
			for pr := range jr.VisitedPorts() {
				if got[pr] {
					t.Fatalf("%s (summary %t): %v yielded twice", name, jr.Summary != nil, pr)
				}
				got[pr] = true
			}
			if len(want) == 0 || !maps.Equal(got, want) {
				t.Fatalf("%s (summary %t): %d visited ports, the histories' union has %d", name, jr.Summary != nil, len(got), len(want))
			}
			// An iterator that kept yielding after the loop broke would panic.
			for range jr.VisitedPorts() {
				break
			}
		}
	}
}

// TestDepartmentResultBytes is the clock-free guard on what a fleet ships
// back: the department all-pairs batch's 16 result frames, gob-encoded on one
// stream as a worker sends them, stay under 1 MB. As full Summaries they were
// 4.8 MB, 72 % of it the same few failure messages over and over.
func TestDepartmentResultBytes(t *testing.T) {
	names, results := departmentResults(t)
	var packed, full bytes.Buffer
	c := newConn(strings.NewReader(""), &packed)
	enc := gob.NewEncoder(&full)
	for i, res := range results {
		if err := c.send(&frame{Kind: frameResult, Result: &resultFrame{Index: i, Name: names[i], Summary: packSummary(res)}}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(Summarize(res)); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d department result frames: %d bytes (as full Summaries: %d)", len(results), packed.Len(), full.Len())
	if packed.Len() > 1_000_000 {
		t.Errorf("department result frames take %d bytes, want at most 1 000 000", packed.Len())
	}
}

// resultCases is every result frame the decode tests read — a real
// department result, which unpacks, and malformed variants of a small traced
// one, each refused with the error in want — and FuzzResultFrame's committed
// seeds (see TestFuzzSeedCorpusCurrent).
func resultCases(t testing.TB) []streamCase {
	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 2, HostsPerSwitch: 8, Routes: 12, Seed: 5})
	dept := mustRun(t, d.Net, core.PortRef{Elem: d.AccessSwitches[0], Port: 1}, sefl.NewTCPPacket(), core.Options{MaxHops: 64})
	net, jobs := testFleetNet()
	traced := mustRun(t, net, jobs[0].Inject, jobs[0].Packet, core.Options{Trace: true})
	// malformed packs the traced result and breaks it; mutate answers the
	// error unpack must give.
	malformed := func(name string, mutate func(w *wireSummary) string) streamCase {
		w := packSummary(traced)
		want := mutate(w)
		return streamCase{name: name, frames: resultFrames(w), want: want}
	}
	// overBudget grows path 0's history by one visit past what a job at
	// MaxHops 1 can record: its 3 visits (SW in, SW out, host in) are exactly
	// historyBudget(1).
	overBudget := malformed("history one visit over the budget", func(w *wireSummary) string {
		leaf := w.Paths[0].Leaf
		w.Hops = append(w.Hops, wireHop{Parent: leaf, Elem: w.Hops[leaf].Elem})
		w.Paths[0].Leaf = int32(len(w.Hops) - 1)
		return "path 0: history of 4 port visits exceeds the job's budget of 3"
	})
	overBudget.maxHops = 1
	// overPaths is the traced result unchanged, answering a job that allowed
	// one path fewer than it has.
	n := len(traced.Paths)
	overPaths := streamCase{
		name:     "paths one over the budget",
		frames:   resultFrames(packSummary(traced)),
		maxPaths: n - 1,
		want:     fmt.Sprintf("%d paths exceed the job's budget of %d", n, n-1),
	}
	return []streamCase{
		{name: "department result", frames: resultFrames(packSummary(dept)), maxHops: 64},
		malformed("hop parent is the hop itself", func(w *wireSummary) string {
			w.Hops[1].Parent = 1 // a cycle
			return "hop 1: parent 1 is not an earlier hop"
		}),
		malformed("hop parent below -1", func(w *wireSummary) string {
			w.Hops[0].Parent = -2
			return "hop 0: parent -2 is not an earlier hop"
		}),
		malformed("element string out of range", func(w *wireSummary) string {
			w.Hops[0].Elem = int32(len(w.Strs))
			return fmt.Sprintf("hop 0: element string %d out of range [0, %d)", len(w.Strs), len(w.Strs))
		}),
		malformed("failure string out of range", func(w *wireSummary) string {
			w.Paths[0].Fail = -1
			return fmt.Sprintf("path 0: failure string -1 out of range [0, %d)", len(w.Strs))
		}),
		malformed("trace string out of range", func(w *wireSummary) string {
			w.Paths[1].Trace[2] = int32(len(w.Strs))
			return fmt.Sprintf("path 1: trace line 2: string %d out of range [0, %d)", len(w.Strs), len(w.Strs))
		}),
		malformed("leaf out of range", func(w *wireSummary) string {
			w.Paths[0].Leaf = int32(len(w.Hops))
			return fmt.Sprintf("path 0: leaf hop %d out of range [-1, %d)", len(w.Hops), len(w.Hops))
		}),
		overBudget,
		overPaths,
	}
}

// TestResultDecodeErrors pins unpack's answer to each result frame of
// resultCases: the real one unpacks, every malformed one is refused with its
// pointed error.
func TestResultDecodeErrors(t *testing.T) {
	for _, tc := range resultCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := recvResult(t, tc.frames, tc.trailing).unpack(tc.maxHops, tc.maxPaths)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unpack: %v", err)
				}
			} else if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
}

// loopNet is two elements forwarding into each other: every packet injected
// at the returned port runs until the engine's hop budget stops it.
func loopNet() (*core.Network, core.PortRef) {
	net := core.NewNetwork()
	for _, name := range []string{"a", "b"} {
		net.AddElement(name, "loop", 1, 1).SetInCode(0, sefl.Forward{Port: 0})
	}
	net.MustLink("a", 0, "b", 0)
	net.MustLink("b", 0, "a", 0)
	return net, core.PortRef{Elem: "a", Port: 0}
}

// TestHopBudgetPathUnpacks pins historyBudget to the engine: a packet caught
// in a forwarding loop, with loop detection off, runs until the engine stops
// it for exceeding its hop budget, which is the longest history a job can
// record. That path has
// exactly historyBudget(MaxHops) port visits and unpacks — at an explicit
// MaxHops and at core's default (MaxHops 0) — and one hop less of budget
// refuses it.
func TestHopBudgetPathUnpacks(t *testing.T) {
	net, inject := loopNet()
	for _, maxHops := range []int{5, 0} {
		res := mustRun(t, net, inject, sefl.NewTCPPacket(), core.Options{MaxHops: maxHops, Loop: core.LoopOff})
		if len(res.Paths) != 1 || !strings.HasPrefix(res.Paths[0].FailMsg, "hop budget exceeded") {
			t.Fatalf("MaxHops %d: want one path stopped by the hop budget, got %d paths, first %q", maxHops, len(res.Paths), res.Paths[0].FailMsg)
		}
		if n, budget := len(res.Paths[0].History()), historyBudget(maxHops); n != budget {
			t.Errorf("MaxHops %d: the hop-budget path has %d port visits, historyBudget says %d", maxHops, n, budget)
		}
		w := recvResult(t, resultFrames(packSummary(res)), nil)
		if _, err := w.unpack(maxHops, 0); err != nil {
			t.Errorf("MaxHops %d: %v", maxHops, err)
		}
		if maxHops > 1 {
			if _, err := w.unpack(maxHops-1, 0); err == nil {
				t.Errorf("MaxHops %d: unpacked against a budget of %d hops", maxHops, maxHops-1)
			}
		}
	}
}
