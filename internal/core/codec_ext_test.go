package core_test

// External-package tests for the network wire codec: the interesting
// networks (department with its ASA For-loops, generated switch/router
// tables) live in packages that import core, so round-trip coverage against
// them has to sit outside package core.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/obs"
	"symnet/internal/prog"
	"symnet/internal/sefl"
)

// runFingerprint reduces a Result to the observable fields distributed
// execution must preserve.
func runFingerprint(t *testing.T, res *core.Result) string {
	t.Helper()
	s := fmt.Sprintf("stats=%+v\n", res.Stats)
	for _, p := range res.Paths {
		s += fmt.Sprintf("path %d %s %q ctx=%v hist=%v trace=%d\n",
			p.ID, p.Status, p.FailMsg, p.Ctx().Fingerprint(), p.History(), len(p.Trace))
	}
	return s
}

func TestNetworkCodecRoundTripDepartment(t *testing.T) {
	cfg := datasets.DepartmentConfig{NumAccessSwitches: 2, HostsPerSwitch: 8, Routes: 12, Seed: 5}
	d := datasets.NewDepartment(cfg)

	w, err := core.EncodeNetwork(d.Net)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	net2, err := core.DecodeNetwork(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	// Structure round-trips: same elements (names, kinds, instances, port
	// counts) and the same links.
	e1, e2 := d.Net.Elements(), net2.Elements()
	if len(e1) != len(e2) {
		t.Fatalf("element count %d != %d", len(e2), len(e1))
	}
	for i := range e1 {
		if e1[i].Name != e2[i].Name || e1[i].Kind != e2[i].Kind ||
			e1[i].Instance != e2[i].Instance ||
			e1[i].NumIn != e2[i].NumIn || e1[i].NumOut != e2[i].NumOut {
			t.Fatalf("element %d differs: %+v != %+v", i, e2[i], e1[i])
		}
	}
	if !reflect.DeepEqual(d.Net.Links(), net2.Links()) {
		t.Fatal("links differ after round trip")
	}

	// Port counts a network cannot mint are refused, not allocated.
	for _, counts := range [][2]int{{-1, 0}, {0, -1}, {1 << 24, 1}, {math.MaxInt, math.MaxInt}} {
		bad := &core.WireNetwork{Elems: []core.WireElement{{Name: "X", NumIn: counts[0], NumOut: counts[1]}}}
		if _, err := core.DecodeNetwork(bad); err == nil {
			t.Errorf("decoded an element with %d input and %d output ports", counts[0], counts[1])
		}
	}

	// The topology crosses without code: every port of the decoded network
	// is codeless until programs are installed.
	for _, e := range net2.Elements() {
		for port := core.WildcardPort; port < max(e.NumIn, e.NumOut); port++ {
			if _, ok := e.CachedProgram(port, false); ok {
				t.Fatalf("decoded %s.in[%d] has code", e.Name, port)
			}
			if _, ok := e.CachedProgram(port, true); ok {
				t.Fatalf("decoded %s.out[%d] has code", e.Name, port)
			}
		}
	}
}

// programImage renders everything a run reads of a program: its IR dump,
// each lowered guard's span table (width and spans, which fix its
// fingerprint), and every op's trace line and Constrain failure message. Two
// programs with equal images run identically.
func programImage(p *prog.Program) string {
	var b strings.Builder
	b.WriteString(p.String())
	for _, it := range prog.GuardTables(p) {
		fmt.Fprintf(&b, "table w%d %v\n", it.Table.Width(), it.Table.Spans())
	}
	for i := range p.Ops {
		fmt.Fprintf(&b, "%d: %s\n", i, p.TraceLine(int32(i)))
		if p.Ops[i].Kind == prog.OpConstrain {
			fmt.Fprintf(&b, "%d: %s\n", i, p.ConstrainFailMsg(int32(i)))
		}
	}
	return b.String()
}

// TestSetupRoundTripEveryDataset pins what a fleet member holds: the
// decoded topology with EncodePrograms' sources installed resolves code at
// exactly the coordinator's (port, direction) pairs — wildcard entries
// included — each entry's program equal to the coordinator's (programImage),
// and runs, trace on, fingerprint-identical from every source without
// compiling anything.
func TestSetupRoundTripEveryDataset(t *testing.T) {
	dept := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 2, HostsPerSwitch: 8, Routes: 12, Seed: 5})
	deptSrcs, _ := dept.AllPairs()
	bb := datasets.StanfordBackbone(4, 24)
	bbSrcs, _ := bb.AllPairs()
	fnet, finj := datasets.ForkHeavy(6, 2, 4)
	for _, ds := range []struct {
		name   string
		net    *core.Network
		srcs   []core.PortRef
		packet sefl.Instr
	}{
		{"department", dept.Net, deptSrcs, sefl.NewTCPPacket()},
		{"backbone", bb.Net, bbSrcs, sefl.NewIPPacket()},
		{"splittcp", datasets.NewSplitTCP(datasets.SplitTCPConfig{ProxyRewritesMAC: true, DHCPAppliance: true}),
			[]core.PortRef{{Elem: "ap", Port: 0}}, datasets.SplitTCPClientPacket()},
		{"forkheavy", fnet, []core.PortRef{finj}, sefl.NewTCPPacket()},
	} {
		t.Run(ds.name, func(t *testing.T) {
			w, err := core.EncodeNetwork(ds.net)
			if err != nil {
				t.Fatal(err)
			}
			progs, err := core.EncodePrograms(ds.net)
			if err != nil {
				t.Fatal(err)
			}
			member, err := core.DecodeNetwork(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.InstallPrograms(member, progs); err != nil {
				t.Fatal(err)
			}

			// Warm compiles every coordinator entry, so CachedProgram reads
			// the coordinator's resolution; the label names the entry
			// resolved, and the member compiled what the coordinator did.
			core.Warm(ds.net)
			compared := 0
			for _, e := range ds.net.Elements() {
				me, _ := member.Element(e.Name)
				for _, out := range []bool{false, true} {
					for port := core.WildcardPort; port < max(e.NumIn, e.NumOut); port++ {
						p, ok := e.CachedProgram(port, out)
						mp, mok := me.CachedProgram(port, out)
						if ok != mok || ok && p.Label != mp.Label {
							t.Fatalf("%s port %d out=%v: coordinator has code %v (%v), member %v (%v)",
								e.Name, port, out, ok, label(p), mok, label(mp))
						}
						if ok && programImage(p) != programImage(mp) {
							t.Fatalf("%s: the member's program differs from the coordinator's:\n--- coordinator\n%s--- member\n%s",
								p.Label, programImage(p), programImage(mp))
						}
						if ok {
							compared++
						}
					}
				}
			}
			if compared < len(progs) {
				t.Fatalf("compared %d programs of %d entries", compared, len(progs))
			}

			// Every port, and each direction's wildcard entry, has an ID
			// that renders back to it, the IDs are dense, Follow reads the
			// ID link table, and the member minted the coordinator's IDs
			// and links.
			ports, links := core.PortTable(ds.net)
			minted := 0
			for _, e := range ds.net.Elements() {
				for _, out := range []bool{false, true} {
					n := e.NumIn
					if out {
						n = e.NumOut
					}
					for i := core.WildcardPort; i < n; i++ {
						ref := core.PortRef{Elem: e.Name, Port: i, Out: out}
						id := core.PortIDOf(ds.net, ref)
						if id < 0 || ports[id] != ref {
							t.Fatalf("%s has ID %d, which renders as %v", ref, id, ports[max(id, 0)])
						}
						to, ok := ds.net.Follow(ref)
						if want := links[id]; ok != (want >= 0) || ok && to != ports[want] {
							t.Fatalf("Follow(%s) = %v, %v; the link table holds %d", ref, to, ok, want)
						}
						minted++
					}
				}
			}
			if minted != len(ports) {
				t.Fatalf("%d ports minted %d IDs", minted, len(ports))
			}
			if mports, mlinks := core.PortTable(member); !slices.Equal(ports, mports) || !slices.Equal(links, mlinks) {
				t.Fatal("the decoded network minted other port IDs or links than the coordinator")
			}

			reg := obs.NewRegistry()
			for _, src := range ds.srcs {
				opts := core.Options{MaxHops: 64, Trace: true}
				r1, err := core.Run(ds.net, src, ds.packet, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Obs = obs.New(reg, nil)
				r2, err := core.Run(member, src, ds.packet, opts)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := runFingerprint(t, r1), runFingerprint(t, r2); a != b {
					t.Fatalf("from %s the member runs differently:\n--- coordinator\n%s--- member\n%s", src, a, b)
				}
			}
			snap := reg.Snapshot()
			if n := snap.Counters["core.progcache.misses"]; n != 0 {
				t.Errorf("the member compiled %d port programs; want none", n)
			}
			if snap.Counters["core.progcache.hits"] == 0 {
				t.Error("the member's runs executed no installed program")
			}
		})
	}
}

// label is a program's label, or "-" for none.
func label(p *prog.Program) string {
	if p == nil {
		return "-"
	}
	return p.Label
}

// TestInstallProgramsRefusesForeignEntries pins that an installed entry
// must name where it lands: an element the network has and a port the
// element has. Each refusal names the entry, and the code setters refuse the
// same ports by panicking. An entry carries source, which the member
// compiles as the element it lands on, so no entry can carry another
// element's scope.
func TestInstallProgramsRefusesForeignEntries(t *testing.T) {
	net := core.NewNetwork()
	net.AddElement("A", "box", 1, 2)
	net.AddElement("B", "box", 1, 2)
	noop, err := sefl.EncodeInstr(sefl.NoOp{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		entry core.WireProgramEntry
		want  string
	}{
		{core.WireProgramEntry{Elem: "nope", Port: 0, Src: noop},
			`core: install program for unknown element "nope"`},
		{core.WireProgramEntry{Elem: "A", Port: 1, Src: noop},
			"core: install program A.in[1]: A has 1 input ports"},
		{core.WireProgramEntry{Elem: "A", Port: 2, Out: true, Src: noop},
			"core: install program A.out[2]: A has 2 output ports"},
		{core.WireProgramEntry{Elem: "A", Port: -2, Src: noop},
			"core: install program A.in[-2]: A has 1 input ports"},
		{core.WireProgramEntry{Elem: "B", Port: 0, Src: &sefl.WireInstr{Kind: 99}},
			"core: install program B.in[0]: sefl: unknown wire instruction kind 99"},
	} {
		err := core.InstallPrograms(net, []core.WireProgramEntry{tc.entry})
		if err == nil || err.Error() != tc.want {
			t.Errorf("install %s port %d out=%v: error %v, want %q", tc.entry.Elem, tc.entry.Port, tc.entry.Out, err, tc.want)
		}
	}
	// The code setters refuse the same ports, so code a member would refuse
	// cannot be attached in-process either.
	a, _ := net.Element("A")
	for _, tc := range []struct {
		set  func()
		want string
	}{
		{func() { a.SetInCode(3, sefl.NoOp{}) }, "core: set code A.in[3]: A has 1 input ports"},
		{func() { a.SetOutCode(2, sefl.NoOp{}) }, "core: set code A.out[2]: A has 2 output ports"},
		{func() { a.SetOutCode(-2, sefl.NoOp{}) }, "core: set code A.out[-2]: A has 2 output ports"},
	} {
		got := func() (msg any) {
			defer func() { msg = recover() }()
			tc.set()
			return nil
		}()
		if got != tc.want {
			t.Errorf("setting code on a port A lacks: panic %v, want %q", got, tc.want)
		}
	}
	for _, e := range net.Elements() {
		for port := core.WildcardPort; port < 2; port++ {
			if _, ok := e.CachedProgram(port, false); ok {
				t.Errorf("a refused entry left code on %s.in[%d]", e.Name, port)
			}
			if _, ok := e.CachedProgram(port, true); ok {
				t.Errorf("a refused entry left code on %s.out[%d]", e.Name, port)
			}
		}
	}
}

// TestHistoryTreeRebuildsHistories pins core.HistoryTree, the shape a fleet
// ships histories in: parents precede children, every path's parent chain
// reads back exactly its History(), forks share their prefix as one run of
// nodes, and an empty history is leaf -1. core.HistoryPorts yields the
// ports of the same nodes.
func TestHistoryTreeRebuildsHistories(t *testing.T) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 2, HostsPerSwitch: 8, Routes: 12, Seed: 5})
	fnet, finj := datasets.ForkHeavy(6, 2, 4)
	for _, tc := range []struct {
		name   string
		net    *core.Network
		inject core.PortRef
	}{
		{"department", d.Net, core.PortRef{Elem: d.AccessSwitches[0], Port: 1}},
		{"forkheavy", fnet, finj},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Run(tc.net, tc.inject, sefl.NewTCPPacket(), core.Options{MaxHops: 64})
			if err != nil {
				t.Fatal(err)
			}
			paths := append(res.Paths, &core.Path{}) // and one with no history
			parent, port, leaf := core.HistoryTree(paths)
			if len(parent) != len(port) || len(leaf) != len(paths) {
				t.Fatalf("%d parents, %d ports, %d leaves for %d paths", len(parent), len(port), len(leaf), len(paths))
			}
			for k, up := range parent {
				if up < -1 || up >= int32(k) {
					t.Fatalf("node %d: parent %d does not precede it", k, up)
				}
			}
			visits := 0
			for i, p := range paths {
				var h []core.PortRef
				for k := leaf[i]; k >= 0; k = parent[k] {
					h = append(h, port[k])
				}
				slices.Reverse(h)
				if want := p.History(); !slices.Equal(h, want) {
					t.Fatalf("path %d: tree reads back %v, History() is %v", i, h, want)
				}
				visits += len(h)
			}
			if leaf[len(paths)-1] != -1 {
				t.Errorf("empty history: leaf %d, want -1", leaf[len(paths)-1])
			}
			if len(res.Paths) > 1 && len(port) >= visits {
				t.Errorf("%d nodes for %d visits: forked paths do not share their prefix", len(port), visits)
			}
			// HistoryPorts walks the same nodes, each once, without numbering.
			var walked []core.PortRef
			for pr := range core.HistoryPorts(paths) {
				walked = append(walked, pr)
			}
			if !slices.Equal(sortedRefs(walked), sortedRefs(port)) {
				t.Errorf("HistoryPorts yields %d ports, the tree has %d nodes with other ports", len(walked), len(port))
			}
		})
	}
}

// sortedRefs renders port visits and sorts them, a multiset to compare.
func sortedRefs(refs []core.PortRef) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}
