package dist

import (
	"fmt"

	"symnet/internal/core"
	"symnet/internal/expr"
)

// wireSummary is a job's Summary as a result frame carries it: every string
// once and every port visit once. A result repeats both heavily — failed
// paths share a handful of guard-failure messages, often a long disjunction
// each, and forked paths share their history prefixes — so shipping a
// Summary as it is copies the same text and the same port visits thousands
// of times over. The worker builds this straight from the core.Result
// (packSummary); the coordinator validates it and expands it into the exact
// Summary that Summarize builds from the same Result (unpack).
type wireSummary struct {
	Stats core.RunStats
	// Strs holds every distinct failure message, trace line and element name
	// of the result. packSummary puts "" first, so a path that did not fail
	// ships index 0, which gob leaves out.
	Strs []string
	// Hops is the history tree (core.HistoryTree): hop k visited its port
	// after hop Parent, or first when Parent is -1.
	Hops  []wireHop
	Paths []wirePath
}

// wireHop is one node of a result's history tree.
type wireHop struct {
	Parent int32
	Elem   int32 // index into Strs
	Port   int
	Out    bool
}

// wirePath is one PathSummary with its strings and history by index.
type wirePath struct {
	ID     int
	Status core.Status
	Fail   int32   // index into Strs
	Leaf   int32   // the path's last hop; -1 for an empty history
	Trace  []int32 // indices into Strs
	CtxFp  expr.Fp
}

// packSummary reduces a Result to its wire form, without materializing any
// path's history.
func packSummary(res *core.Result) *wireSummary {
	parent, ports, leaf := core.HistoryTree(res.Paths)
	w := &wireSummary{
		Stats: res.Stats,
		Hops:  make([]wireHop, len(ports)),
		Paths: make([]wirePath, len(res.Paths)),
	}
	index := make(map[string]int32)
	intern := func(s string) int32 {
		i, ok := index[s]
		if !ok {
			i = int32(len(w.Strs))
			index[s] = i
			w.Strs = append(w.Strs, s)
		}
		return i
	}
	intern("")
	for k, r := range ports {
		w.Hops[k] = wireHop{Parent: parent[k], Elem: intern(r.Elem), Port: r.Port, Out: r.Out}
	}
	for i, p := range res.Paths {
		wp := wirePath{ID: p.ID, Status: p.Status, Fail: intern(p.FailMsg), Leaf: leaf[i], CtxFp: p.Ctx.Fingerprint()}
		wp.Trace = make([]int32, len(p.Trace))
		for j, line := range p.Trace {
			wp.Trace[j] = intern(line)
		}
		w.Paths[i] = wp
	}
	return w
}

// maxUnpackedPorts bounds the port visits one unpacked result may hold. A
// hop tree expands to the sum of its paths' depths, which a small frame can
// make astronomically large; a real result this size (8 GB of PortRefs)
// would not fit the coordinator anyway, so past it unpack refuses instead of
// asking the allocator for the impossible.
const maxUnpackedPorts = 1 << 28

// defaultMaxHops is core.Options' MaxHops when a job leaves it 0.
const defaultMaxHops = 4096

// historyBudget is the most port visits one path of a job run at maxHops can
// record: each of its hops pushes the input port and at most one output port
// (core's step and depart), and the hop that trips the budget pushes its
// input port and fails, so a path ends with at most 2×maxHops+1 visits.
func historyBudget(maxHops int) int {
	if maxHops == 0 {
		maxHops = defaultMaxHops
	}
	return 2*max(maxHops, 0) + 1
}

// unpack expands a wire summary into the Summary that Summarize builds from
// the same Result of a job run at maxHops. Every index is checked first, and
// every path's history against the job's budget — the member is a remote
// process whose bytes the coordinator did not write — so a malformed summary
// is an error, never a panic. Strings are shared between paths, and all
// paths' Ports (and Traces) are cut from one backing array, each capped at
// its own length so an append to one cannot reach its neighbour.
func (w *wireSummary) unpack(maxHops int) (*Summary, error) {
	budget := historyBudget(maxHops)
	nstr := int32(len(w.Strs))
	depth := make([]int32, len(w.Hops))
	refs := make([]core.PortRef, len(w.Hops))
	for k, h := range w.Hops {
		if h.Parent < -1 || h.Parent >= int32(k) {
			return nil, fmt.Errorf("hop %d: parent %d is not an earlier hop", k, h.Parent)
		}
		if h.Elem < 0 || h.Elem >= nstr {
			return nil, fmt.Errorf("hop %d: element string %d out of range [0, %d)", k, h.Elem, nstr)
		}
		depth[k] = 1
		if h.Parent >= 0 {
			depth[k] += depth[h.Parent]
		}
		refs[k] = core.PortRef{Elem: w.Strs[h.Elem], Port: h.Port, Out: h.Out}
	}
	nports, nlines := 0, 0
	for i, p := range w.Paths {
		if p.Fail < 0 || p.Fail >= nstr {
			return nil, fmt.Errorf("path %d: failure string %d out of range [0, %d)", i, p.Fail, nstr)
		}
		if p.Leaf < -1 || p.Leaf >= int32(len(w.Hops)) {
			return nil, fmt.Errorf("path %d: leaf hop %d out of range [-1, %d)", i, p.Leaf, len(w.Hops))
		}
		for j, s := range p.Trace {
			if s < 0 || s >= nstr {
				return nil, fmt.Errorf("path %d: trace line %d: string %d out of range [0, %d)", i, j, s, nstr)
			}
		}
		if p.Leaf >= 0 {
			if d := int(depth[p.Leaf]); d > budget {
				return nil, fmt.Errorf("path %d: history of %d port visits exceeds the job's budget of %d", i, d, budget)
			}
			if nports += int(depth[p.Leaf]); nports > maxUnpackedPorts {
				return nil, fmt.Errorf("path %d: histories exceed %d port visits", i, maxUnpackedPorts)
			}
		}
		nlines += len(p.Trace)
	}

	s := &Summary{Stats: w.Stats, Paths: make([]PathSummary, len(w.Paths))}
	ports := make([]core.PortRef, nports)
	lines := make([]string, nlines)
	for i, p := range w.Paths {
		ps := PathSummary{ID: p.ID, Status: p.Status, FailMsg: w.Strs[p.Fail], CtxFp: p.CtxFp}
		if p.Leaf >= 0 {
			n := int(depth[p.Leaf])
			ps.Ports, ports = ports[:n:n], ports[n:]
			for k := p.Leaf; k >= 0; k = w.Hops[k].Parent {
				n--
				ps.Ports[n] = refs[k]
			}
		}
		if n := len(p.Trace); n > 0 {
			ps.Trace, lines = lines[:n:n], lines[n:]
			for j, si := range p.Trace {
				ps.Trace[j] = w.Strs[si]
			}
		}
		s.Paths[i] = ps
	}
	return s, nil
}
