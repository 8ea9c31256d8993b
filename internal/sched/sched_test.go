package sched_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/models"
	"symnet/internal/obs"
	"symnet/internal/sefl"
	"symnet/internal/verify"
)

var update = flag.Bool("update", false, "rewrite "+digestFile+" from core.Run's current results")

// digestFile holds one line per golden case: its name, a tab, and the SHA-256
// of its fingerprint.
const digestFile = "testdata/run_digests.txt"

// fingerprint serializes a Result completely enough that two equal
// fingerprints mean byte-identical path sets: IDs, statuses, fail messages,
// port histories, final header values (including fresh-symbol IDs, so the
// order the run mints symbols in is under test too), their solver domains,
// and the run statistics.
func fingerprint(res *core.Result) string {
	var b strings.Builder
	fields := []sefl.Hdr{sefl.EtherDst, sefl.EtherSrc, sefl.IPSrc, sefl.IPDst, sefl.IPTTL, sefl.TcpSrc, sefl.TcpDst}
	for _, p := range res.Paths {
		fmt.Fprintf(&b, "#%d %s %q", p.ID, p.Status, p.FailMsg)
		for _, h := range p.History() {
			fmt.Fprintf(&b, " %s", h)
		}
		for _, f := range p.Mem.Fields() {
			if f.Set {
				fmt.Fprintf(&b, " @%d/%d=%s", f.Off, f.Size, f.Val)
			}
		}
		for _, h := range fields {
			if d, err := verify.FieldDomain(p, h); err == nil {
				fmt.Fprintf(&b, " %s:%s", h.Name, d)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "stats %+v\n", res.Stats)
	return b.String()
}

// readDigests loads digestFile (empty when it does not exist yet).
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	digests := make(map[string]string)
	f, err := os.Open(digestFile)
	if os.IsNotExist(err) {
		return digests
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		digests[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return digests
}

func writeDigests(t *testing.T, digests map[string]string) {
	t.Helper()
	var b strings.Builder
	names := make([]string, 0, len(digests))
	for name := range digests {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s\t%s\n", name, digests[name])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkGolden runs one query through core.Run and demands the Result whose
// fingerprint digestFile records under name: the same path IDs, statuses,
// histories, symbol IDs, domains and statistics as when the file was
// written. -update rewrites the case's line instead.
func checkGolden(t *testing.T, name string, net *core.Network, inject core.PortRef, packet sefl.Instr, opts core.Options) {
	t.Helper()
	res, err := core.Run(net, inject, packet, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Stats.Paths == 0 {
		t.Fatalf("%s: explored no paths", name)
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(fingerprint(res))))
	digests := readDigests(t)
	if *update {
		digests[name] = got
		writeDigests(t, digests)
		return
	}
	if want, ok := digests[name]; !ok {
		t.Errorf("%s: no digest in %s (run with -update)", name, digestFile)
	} else if got != want {
		t.Errorf("%s: result digest %s, want %s: path IDs, symbols, domains or stats changed", name, got, want)
	}
}

func natFirewallNet(t *testing.T) *core.Network {
	t.Helper()
	net := core.NewNetwork()
	fw := net.AddElement("FW", "stateful-firewall", 2, 2)
	models.StatefulFirewall(fw, 0, 1, 0, 1)
	nat := net.AddElement("NAT", "nat", 2, 2)
	models.NAT(nat, models.DefaultNATConfig("141.85.37.2"))
	srv := net.AddElement("SRV", "reflector", 1, 1)
	srv.SetInCode(0, sefl.Seq(
		sefl.Allocate{LV: sefl.Meta{Name: "t"}, Size: 32},
		sefl.Assign{LV: sefl.Meta{Name: "t"}, E: sefl.Ref{LV: sefl.IPSrc}},
		sefl.Assign{LV: sefl.IPSrc, E: sefl.Ref{LV: sefl.IPDst}},
		sefl.Assign{LV: sefl.IPDst, E: sefl.Ref{LV: sefl.Meta{Name: "t"}}},
		sefl.Deallocate{LV: sefl.Meta{Name: "t"}, Size: 32},
		sefl.Allocate{LV: sefl.Meta{Name: "tp"}, Size: 16},
		sefl.Assign{LV: sefl.Meta{Name: "tp"}, E: sefl.Ref{LV: sefl.TcpSrc}},
		sefl.Assign{LV: sefl.TcpSrc, E: sefl.Ref{LV: sefl.TcpDst}},
		sefl.Assign{LV: sefl.TcpDst, E: sefl.Ref{LV: sefl.Meta{Name: "tp"}}},
		sefl.Deallocate{LV: sefl.Meta{Name: "tp"}, Size: 16},
		sefl.Forward{Port: 0},
	))
	host := net.AddElement("HOST", "host", 1, 0)
	host.SetInCode(0, sefl.NoOp{})
	net.MustLink("FW", 0, "NAT", 0)
	net.MustLink("NAT", 0, "SRV", 0)
	net.MustLink("SRV", 0, "NAT", 1)
	net.MustLink("NAT", 1, "FW", 1)
	net.MustLink("FW", 1, "HOST", 0)
	return net
}

func smallDepartment(fixed bool) *datasets.Department {
	return datasets.NewDepartment(datasets.DepartmentConfig{
		NumAccessSwitches: 3, HostsPerSwitch: 24, Routes: 40, Seed: 5, Fixed: fixed})
}

func TestRunDeterministicDepartment(t *testing.T) {
	d := smallDepartment(false)
	opts := core.Options{MaxHops: 64}
	checkGolden(t, "department office",
		d.Net, core.PortRef{Elem: "asw0", Port: 1}, d.OfficePacket(false), opts)
	checkGolden(t, "department inbound",
		d.Net, core.PortRef{Elem: "exit", Port: 1}, sefl.NewTCPPacket(), opts)
}

func TestRunDeterministicSplitTCP(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  datasets.SplitTCPConfig
	}{
		{"plain", datasets.SplitTCPConfig{ProxyRewritesMAC: true}},
		{"tunnel-mtu", datasets.SplitTCPConfig{Tunnel: true, MTUDrop: true, ProxyRewritesMAC: true}},
		{"vlan-bug", datasets.SplitTCPConfig{ProxyStripsVLAN: true, ProxyRewritesMAC: true}},
		{"dhcp", datasets.SplitTCPConfig{DHCPAppliance: true, ProxyRewritesMAC: true}},
	} {
		net := datasets.NewSplitTCP(tc.cfg)
		checkGolden(t, "splittcp/"+tc.name,
			net, core.PortRef{Elem: "ap", Port: 0}, datasets.SplitTCPClientPacket(),
			core.Options{MaxHops: 64})
	}
}

// TestRunDeterministicNATFirewall covers mid-path fresh-symbol allocation
// (the NAT's rewritten source port), numbered in the order the depth-first
// walk mints it.
func TestRunDeterministicNATFirewall(t *testing.T) {
	checkGolden(t, "nat+firewall roundtrip",
		natFirewallNet(t), core.PortRef{Elem: "FW", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	checkGolden(t, "nat+firewall unsolicited",
		natFirewallNet(t), core.PortRef{Elem: "NAT", Port: 1}, sefl.NewTCPPacket(), core.Options{})
}

func TestRunDeterministicStanford(t *testing.T) {
	bb := datasets.StanfordBackbone(4, 30)
	checkGolden(t, "stanford zone inject",
		bb.Net, core.PortRef{Elem: bb.Zones[0], Port: 2}, sefl.NewIPPacket(), core.Options{})
}

// TestRunDeterministicWithLoopDetection pins the walk without loop
// detection: "department office" runs at the default, LoopFull, and here
// the same query runs its two forwarding loops out to the hop budget.
func TestRunDeterministicWithLoopDetection(t *testing.T) {
	d := smallDepartment(false)
	checkGolden(t, "department loop-off",
		d.Net, core.PortRef{Elem: "asw0", Port: 1}, d.OfficePacket(false),
		core.Options{MaxHops: 64, Loop: core.LoopOff})
}

// TestRunDeterministicWideFrontier drives a Basic-style switch whose single
// ingress step fans out into ~1500 branch states, each crossing a link to a
// host: a wide fan-out, all of it on the stack at once, explored last
// successor first.
func TestRunDeterministicWideFrontier(t *testing.T) {
	const ports = 20
	tbl := datasets.SwitchTable(1500, ports, 42)
	net := core.NewNetwork()
	sw := net.AddElement("SW", "switch", 1, ports)
	if err := models.Switch(sw, tbl, models.Basic); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < ports; p++ {
		host := net.AddElement(fmt.Sprintf("H%d", p), "host", 1, 0)
		host.SetInCode(0, sefl.NoOp{})
		net.MustLink("SW", p, host.Name, 0)
	}
	checkGolden(t, "wide basic switch",
		net, core.PortRef{Elem: "SW", Port: 0}, sefl.NewEthernetPacket(), core.Options{})
}

// TestExplorationIsDepthFirst keeps one query's live states at the depth-first
// bound: a tree of depth d and fan-out f never holds more than d × (f − 1) + 1
// states waiting on the stack, where a breadth-first frontier holds all f^d
// leaves at once.
func TestExplorationIsDepthFirst(t *testing.T) {
	const depth, fan = 4, 8
	net, inject := datasets.ForkHeavy(64, depth, fan)
	reg := obs.NewRegistry()
	res, err := core.Run(net, inject, sefl.NewIPPacket(), core.Options{Obs: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered != 4096 {
		t.Fatalf("delivered %d paths, want 4096: %+v", res.Stats.Delivered, res.Stats)
	}
	got := reg.Snapshot().Gauges["core.queue.depth.max"]
	t.Logf("core.queue.depth.max = %d", got)
	if bound := int64(depth*(fan-1) + 1); got > bound {
		t.Fatalf("core.queue.depth.max = %d, want at most depth × (fan − 1) + 1 = %d", got, bound)
	}
}

// TestRunErrorsMatchSequential pins core.Run's two run-level errors: an
// invalid injection port, and a path budget exceeded.
func TestRunErrorsMatchSequential(t *testing.T) {
	d := smallDepartment(false)
	_, err := core.Run(d.Net, core.PortRef{Elem: "nosuch", Port: 0}, sefl.NewTCPPacket(), core.Options{})
	if want := `core: inject element "nosuch" not found`; err == nil || err.Error() != want {
		t.Fatalf("inject error = %v, want %q", err, want)
	}
	opts := core.Options{MaxHops: 64, MaxPaths: 2}
	_, err = core.Run(d.Net, core.PortRef{Elem: "exit", Port: 1}, sefl.NewTCPPacket(), opts)
	if want := "core: path budget exceeded (2)"; err == nil || err.Error() != want {
		t.Fatalf("budget error = %v, want %q", err, want)
	}
}
