package core_test

import (
	"fmt"
	"sync"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/expr"
	"symnet/internal/sefl"
)

// runDigest renders a Result completely: runFingerprint's statuses,
// histories, context fingerprints and stats, every set header field and
// metadata entry with its symbol and its domain, and where the run's
// allocator stopped.
func runDigest(t *testing.T, res *core.Result) string {
	t.Helper()
	s := runFingerprint(t, res)
	for _, p := range res.Paths {
		ctx := p.Ctx()
		dom := func(v expr.Lin) string { return ctx.Domain(v).String() }
		s += fmt.Sprintf("path %d:", p.ID)
		for _, f := range p.Mem.Fields() {
			if f.Set {
				s += fmt.Sprintf(" @%d/%d=%s in %s", f.Off, f.Size, f.Val, dom(f.Val))
			}
		}
		for _, m := range p.Mem.MetaEntries() {
			if m.Set {
				s += fmt.Sprintf(" %s=%s in %s", m.Key, m.Val, dom(m.Val))
			}
		}
		s += "\n"
	}
	return s + fmt.Sprintf("alloc %d\n", res.Alloc.Count())
}

// sharedCase is one dataset's query: a network builder, its sources and the
// packet each source injects.
type sharedCase struct {
	name    string
	build   func() *core.Network
	sources []core.PortRef
	packet  func() sefl.Instr
	opts    core.Options
}

func sharedCases() []sharedCase {
	deptCfg := datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 8, Routes: 12, Seed: 5}
	dept := func() *core.Network { return datasets.NewDepartment(deptCfg).Net }
	deptSources, _ := datasets.NewDepartment(deptCfg).AllPairs()
	bb := func() *core.Network { return datasets.StanfordBackbone(4, 30).Net }
	var zones []core.PortRef
	for _, z := range datasets.StanfordBackbone(4, 30).Zones {
		zones = append(zones, core.PortRef{Elem: z, Port: 2})
	}
	_, forkInject := datasets.ForkHeavy(16, 3, 4)
	_, satInject := datasets.SatHeavy(24)
	cases := []sharedCase{
		{"department", dept, deptSources, sefl.NewTCPPacket, core.Options{MaxHops: 64}},
		{"department office", dept, deptSources, func() sefl.Instr {
			return datasets.NewDepartment(deptCfg).OfficePacket(true)
		}, core.Options{MaxHops: 64}},
		{"department loop-off", dept, deptSources, sefl.NewTCPPacket, core.Options{MaxHops: 24, Loop: core.LoopOff}},
		{"stanford", bb, zones, sefl.NewIPPacket, core.Options{}},
		{"forkheavy", func() *core.Network { n, _ := datasets.ForkHeavy(16, 3, 4); return n },
			[]core.PortRef{forkInject}, sefl.NewIPPacket, core.Options{}},
		{"satheavy", func() *core.Network { n, _ := datasets.SatHeavy(24); return n },
			[]core.PortRef{satInject}, sefl.NewTCPPacket, core.Options{}},
	}
	for _, cfg := range []datasets.SplitTCPConfig{
		{ProxyRewritesMAC: true},
		{Tunnel: true, MTUDrop: true, ProxyRewritesMAC: true},
		{ProxyStripsVLAN: true, ProxyRewritesMAC: true},
		{DHCPAppliance: true, ProxyRewritesMAC: true},
	} {
		cases = append(cases, sharedCase{fmt.Sprintf("splittcp %+v", cfg),
			func() *core.Network { return datasets.NewSplitTCP(cfg) },
			[]core.PortRef{{Elem: "ap", Port: 0}}, datasets.SplitTCPClientPacket, core.Options{MaxHops: 64}})
	}
	return cases
}

// TestSharedPacketRunsMatchFresh: the network keeps the packet its
// injection code builds, and every later run starts from a clone of it. On
// every dataset, three rounds over the query's sources on one network give,
// run by run, the digest a run from that source on a fresh network gives:
// paths, symbols, domains and stats. After the first run the slot holds the
// packet.
func TestSharedPacketRunsMatchFresh(t *testing.T) {
	for _, tc := range sharedCases() {
		want := make([]string, len(tc.sources))
		for i, src := range tc.sources {
			res, err := core.Run(tc.build(), src, tc.packet(), tc.opts)
			if err != nil {
				t.Fatalf("%s from %s on a fresh network: %v", tc.name, src, err)
			}
			want[i] = runDigest(t, res)
		}
		net := tc.build()
		for round := 0; round < 3; round++ {
			for i, src := range tc.sources {
				res, err := core.Run(net, src, tc.packet(), tc.opts)
				if err != nil {
					t.Fatalf("%s from %s, round %d: %v", tc.name, src, round, err)
				}
				if got := runDigest(t, res); got != want[i] {
					t.Fatalf("%s from %s, round %d: the run differs from a fresh network's:\n%s\nwant\n%s", tc.name, src, round, got, want[i])
				}
				if _, shared := core.InjectedPacket(net); !shared {
					t.Fatalf("%s from %s, round %d: the network keeps no packet", tc.name, src, round)
				}
			}
		}
	}
}

// TestSharedPacketOnlyWhenItIsOne: the network keeps no packet when the
// injection code reads its element, when the run is traced or interprets
// the code, when the injection forks, forwards or fails, or when it made a
// Sat check; each such run, repeated on one network, gives a fresh
// network's result.
func TestSharedPacketOnlyWhenItIsOne(t *testing.T) {
	local := sefl.Meta{Name: "x", Local: true}
	f := sefl.Meta{Name: "f"}
	g := sefl.Meta{Name: "g"}
	field := func(m sefl.Meta, name string) sefl.Instr {
		return sefl.Seq(sefl.Allocate{LV: m, Size: 8}, sefl.Assign{LV: m, E: sefl.Symbolic{W: 8, Name: name}})
	}
	for _, tc := range []struct {
		name string
		code func() sefl.Instr
		opts core.Options
	}{
		{"reads its element", func() sefl.Instr {
			return sefl.Seq(sefl.NewTCPPacket(), sefl.Allocate{LV: local, Size: 8}, sefl.Assign{LV: local, E: sefl.CW(5, 8)})
		}, core.Options{}},
		{"traced", sefl.NewTCPPacket, core.Options{Trace: true}},
		{"interpreted", sefl.NewTCPPacket, core.Options{ASTInterp: true}},
		{"forks", func() sefl.Instr {
			return sefl.Seq(field(f, "f"), sefl.If{C: sefl.Eq(sefl.Ref{LV: f}, sefl.CW(1, 8)),
				Then: sefl.Assign{LV: f, E: sefl.CW(2, 8)}, Else: sefl.NoOp{}})
		}, core.Options{}},
		{"forwards", func() sefl.Instr { return sefl.Seq(sefl.NewTCPPacket(), sefl.Forward{Port: 0}) }, core.Options{}},
		{"fails", func() sefl.Instr { return sefl.Seq(sefl.NewTCPPacket(), sefl.Fail{Msg: "dropped"}) }, core.Options{}},
		{"forks and fails", func() sefl.Instr {
			return sefl.Seq(field(f, "f"), sefl.If{C: sefl.Eq(sefl.Ref{LV: f}, sefl.CW(1, 8)),
				Then: sefl.Fail{Msg: "one"}, Else: sefl.NoOp{}})
		}, core.Options{}},
		{"checks Sat", func() sefl.Instr {
			return sefl.Seq(field(f, "f"), field(g, "g"), sefl.Constrain{C: sefl.OrC(
				sefl.Eq(sefl.Ref{LV: f}, sefl.CW(1, 8)), sefl.Eq(sefl.Ref{LV: g}, sefl.CW(2, 8)))})
		}, core.Options{}},
	} {
		net := injectNet()
		for _, at := range []string{"A", "B", "A"} {
			inj := core.PortRef{Elem: at}
			got, err := core.Run(net, inj, tc.code(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(injectNet(), inj, tc.code(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := runDigest(t, got)+injectImage(t, got), runDigest(t, want)+injectImage(t, want); g != w {
				t.Fatalf("%s at %s: the run differs from a fresh network's:\n%s\nwant\n%s", tc.name, at, g, w)
			}
			if _, shared := core.InjectedPacket(net); shared {
				t.Fatalf("%s at %s: the network keeps a packet", tc.name, at)
			}
			if tc.name == "checks Sat" && got.Stats.Solver.SatChecks == 0 {
				t.Fatalf("%s at %s: the injection made no Sat check", tc.name, at)
			}
		}
	}
}

// TestNewInjectionReplacesPacket: the slot keeps one code's program and
// packet, so new code replaces both, and a run of the old code again builds
// its own packet, not the new code's.
func TestNewInjectionReplacesPacket(t *testing.T) {
	net := injectNet()
	codes := []func() sefl.Instr{sefl.NewTCPPacket, sefl.NewIPPacket, sefl.NewTCPPacket}
	for i, code := range codes {
		for _, at := range []string{"A", "B"} {
			inj := core.PortRef{Elem: at}
			got, err := core.Run(net, inj, code(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(injectNet(), inj, code(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := runDigest(t, got), runDigest(t, want); g != w {
				t.Fatalf("code %d at %s: the run differs from a fresh network's:\n%s\nwant\n%s", i, at, g, w)
			}
			src, shared := core.InjectedPacket(net)
			if !shared || !sefl.Equal(src, code()) {
				t.Fatalf("code %d at %s: the slot holds %v (packet %t), want this code and its packet", i, at, src, shared)
			}
		}
	}
}

// TestSharedPacketConcurrentRuns: four goroutines run the department's
// all-pairs sources on one network at once, so runs store and clone the
// packet concurrently (run under -race); every run gives a fresh network's
// result.
func TestSharedPacketConcurrentRuns(t *testing.T) {
	tc := sharedCases()[0]
	want := make([]string, len(tc.sources))
	for i, src := range tc.sources {
		res, err := core.Run(tc.build(), src, tc.packet(), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = runDigest(t, res)
	}
	net := tc.build()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tc.sources {
				src := tc.sources[(i+w)%len(tc.sources)]
				res, err := core.Run(net, src, tc.packet(), tc.opts)
				if err != nil {
					errs <- err
					return
				}
				if got := runDigest(t, res); got != want[(i+w)%len(tc.sources)] {
					errs <- fmt.Errorf("worker %d from %s: the run differs from a fresh network's", w, src)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
