package core_test

// External-package tests for the network wire codec: the interesting
// networks (department with its ASA For-loops, generated switch/router
// tables) live in packages that import core, so round-trip coverage against
// them has to sit outside package core.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/sefl"
)

// runFingerprint reduces a Result to the observable fields distributed
// execution must preserve.
func runFingerprint(t *testing.T, res *core.Result) string {
	t.Helper()
	s := fmt.Sprintf("stats=%+v\n", res.Stats)
	for _, p := range res.Paths {
		s += fmt.Sprintf("path %d %s %q ctx=%v hist=%v trace=%d\n",
			p.ID, p.Status, p.FailMsg, p.Ctx.Fingerprint(), p.History(), len(p.Trace))
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

	// Execution round-trips: a run on the decoded network (which recompiles
	// from the decoded ASTs) is observably identical, traces included.
	inject := core.PortRef{Elem: d.AccessSwitches[0], Port: 1}
	opts := core.Options{MaxHops: 64, Trace: true}
	r1, err := core.Run(d.Net, inject, sefl.NewTCPPacket(), opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.Run(net2, inject, sefl.NewTCPPacket(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := runFingerprint(t, r1), runFingerprint(t, r2); a != b {
		t.Fatalf("decoded network runs differently:\n--- original\n%s--- decoded\n%s", a, b)
	}
}

func TestInstallProgramsSkipsRecompilation(t *testing.T) {
	cfg := datasets.DepartmentConfig{NumAccessSwitches: 2, HostsPerSwitch: 8, Routes: 12, Seed: 5}
	d := datasets.NewDepartment(cfg)

	progs, err := core.EncodePrograms(d.Net)
	if err != nil {
		t.Fatalf("encode programs: %v", err)
	}
	if len(progs) == 0 {
		t.Fatal("no programs encoded")
	}
	w, err := core.EncodeNetwork(d.Net)
	if err != nil {
		t.Fatal(err)
	}
	net2, err := core.DecodeNetwork(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.InstallPrograms(net2, progs); err != nil {
		t.Fatalf("install: %v", err)
	}

	// The decoded+installed network must execute the shipped IR to the same
	// observable result as the original's locally compiled IR.
	inject := core.PortRef{Elem: "exit", Port: 1}
	opts := core.Options{MaxHops: 64, Trace: true}
	r1, err := core.Run(d.Net, inject, sefl.NewTCPPacket(), opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.Run(net2, inject, sefl.NewTCPPacket(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := runFingerprint(t, r1), runFingerprint(t, r2); a != b {
		t.Fatalf("installed programs run differently:\n--- original\n%s--- installed\n%s", a, b)
	}

	// Installing onto an unknown element is an error, not a silent no-op.
	bogus := []core.WireProgramEntry{{Elem: "nope", Port: 0, Prog: progs[0].Prog}}
	if err := core.InstallPrograms(net2, bogus); err == nil {
		t.Fatal("install onto unknown element must fail")
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
