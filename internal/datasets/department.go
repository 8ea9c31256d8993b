package datasets

import (
	"fmt"
	"strings"

	"symnet/internal/asa"
	"symnet/internal/core"
	"symnet/internal/models"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// Department reproduces the CS department network of Fig. 11 / §8.5: hosts
// behind access switches, an aggregation switch, the M2 master switch, a
// Cisco ASA as the first IP hop, the M1 department router and the exit
// router, plus the management VLAN (192.168.137.0/24) with the cluster's
// "hole" server.
//
// Simplification (documented in DESIGN.md): VLAN tags are not carried
// hop-by-hop through the L2 segment; VLAN separation is enforced at the
// ASA boundary and the management network is modeled as its own L2 leg.
// The §8.5 findings this generator reproduces: office→Internet via the
// ASA, TCP-options tampering (SACK disabled for HTTP, MPTCP stripped),
// the inbound management-VLAN hole via M1, cluster→switch management
// access, and the fix.
type Department struct {
	Net *core.Network
	// Fixed selects the corrected static routes (the admins' fix).
	Fixed bool

	AccessSwitches []string
	MACEntries     int
	RouteEntries   int

	// MACTables and FIBs hold every learned-table element's rule state by
	// element name (access switches, agg, m2 / m1, exit) — what an
	// incremental verification service (internal/churn) registers so it can
	// absorb rule deltas against the same tables the models were built from.
	MACTables map[string]tables.MACTable
	FIBs      map[string]tables.FIB

	// Well-known addresses.
	ASAMac   string
	PublicIP string
	MgmtCIDR string
}

// DepartmentConfig sizes the topology.
type DepartmentConfig struct {
	NumAccessSwitches int // paper: 15
	HostsPerSwitch    int // MACs per access switch; paper total ~6000
	Routes            int // router FIB size; paper: ~400
	Fixed             bool
	Seed              int64
}

// DefaultDepartment mirrors the paper's scale.
func DefaultDepartment() DepartmentConfig {
	return DepartmentConfig{NumAccessSwitches: 15, HostsPerSwitch: 400, Routes: 400, Seed: 11}
}

// HeavyDepartment quadruples the paper's switch count and doubles its route
// table. The parallel all-pairs benchmark pair (BenchmarkAllPairsDepartment
// Seq/Par, which CI's multicore gate reads) uses it so a batch has enough
// sources to spread over the workers; symnetd -network department -heavy
// serves it.
func HeavyDepartment() DepartmentConfig {
	return DepartmentConfig{NumAccessSwitches: 60, HostsPerSwitch: 400, Routes: 800, Seed: 11}
}

// hostMAC derives a deterministic host MAC.
func hostMAC(sw, host int) uint64 {
	return 0x020000000000 | uint64(sw)<<16 | uint64(host)
}

// NewDepartment builds the network.
func NewDepartment(cfg DepartmentConfig) *Department {
	d := &Department{
		Net:       core.NewNetwork(),
		Fixed:     cfg.Fixed,
		ASAMac:    "02:aa:00:00:00:01",
		PublicIP:  "141.85.37.2",
		MgmtCIDR:  "192.168.137.0/24",
		MACTables: make(map[string]tables.MACTable),
		FIBs:      make(map[string]tables.FIB),
	}
	net := d.Net
	asaMACNum := sefl.MACToNumber(d.ASAMac)

	// --- Access switches: host MACs on ports 1..n, upstream on port 0.
	for s := 0; s < cfg.NumAccessSwitches; s++ {
		name := fmt.Sprintf("asw%d", s)
		d.AccessSwitches = append(d.AccessSwitches, name)
		var tbl tables.MACTable
		hostPorts := 4 // group hosts onto a few physical ports
		for h := 0; h < cfg.HostsPerSwitch; h++ {
			tbl = append(tbl, tables.MACEntry{MAC: hostMAC(s, h), VLAN: 302, Port: 1 + h%hostPorts})
		}
		tbl = append(tbl, tables.MACEntry{MAC: asaMACNum, VLAN: 302, Port: 0})
		d.MACEntries += len(tbl)
		e := net.AddElement(name, "switch", 1+hostPorts, 1+hostPorts)
		if err := models.Switch(e, tbl, models.Egress); err != nil {
			panic(err)
		}
		d.MACTables[name] = tbl
	}

	// --- Aggregation switch: port s per access switch, port N upstream.
	nA := cfg.NumAccessSwitches
	var aggTbl tables.MACTable
	for s := 0; s < nA; s++ {
		for h := 0; h < cfg.HostsPerSwitch; h += 7 { // a subset is learned
			aggTbl = append(aggTbl, tables.MACEntry{MAC: hostMAC(s, h), VLAN: 302, Port: s})
		}
	}
	aggTbl = append(aggTbl, tables.MACEntry{MAC: asaMACNum, VLAN: 302, Port: nA})
	d.MACEntries += len(aggTbl)
	agg := net.AddElement("agg", "switch", nA+1, nA+1)
	if err := models.Switch(agg, aggTbl, models.Egress); err != nil {
		panic(err)
	}
	d.MACTables["agg"] = aggTbl

	// --- M2 master switch: agg on port 0, ASA on port 1, cluster on 2,
	// management leg on 3.
	var m2Tbl tables.MACTable
	for s := 0; s < nA; s++ {
		m2Tbl = append(m2Tbl, tables.MACEntry{MAC: hostMAC(s, 0), VLAN: 302, Port: 0})
	}
	m2Tbl = append(m2Tbl,
		tables.MACEntry{MAC: asaMACNum, VLAN: 302, Port: 1},
		tables.MACEntry{MAC: sefl.MACToNumber("02:cc:00:00:00:01"), VLAN: 1, Port: 2}, // cluster
		tables.MACEntry{MAC: sefl.MACToNumber("02:dd:00:00:00:01"), VLAN: 1, Port: 3}, // mgmt
	)
	d.MACEntries += len(m2Tbl)
	m2 := net.AddElement("m2", "switch", 4, 4)
	if err := models.Switch(m2, m2Tbl, models.Egress); err != nil {
		panic(err)
	}
	d.MACTables["m2"] = m2Tbl

	// --- ASA: inside (VLAN side) <-> outside (M1 side).
	asaCfg, err := asa.ParseConfig(strings.NewReader(`
hostname dept-asa
dynamic-nat 141.85.37.2 1024-65535
access-list inbound deny any
tcp-options allow mss,wscale,sackok,sack,timestamp
tcp-options drop md5
tcp-options strip-sack-http
`))
	if err != nil {
		panic(err)
	}
	asaEl := net.AddElement("asa", "asa", 2, 2)
	asa.Build(asaEl, asaCfg)

	// --- M1 router: port 0 -> ASA (department public space), port 1 ->
	// management leg (the HOLE: a route to the management VLAN), port 2 ->
	// exit router. The fix removes the management route.
	m1FIB := tables.FIB{
		{Prefix: sefl.IPToNumber("141.85.37.0"), Len: 24, Port: 0},
		{Prefix: sefl.IPToNumber("192.168.137.0"), Len: 24, Port: 1},
		{Prefix: 0, Len: 0, Port: 2},
	}
	// Pad with additional departmental routes to reach the paper's ~400;
	// they point at the ASA side like the department's public space.
	for i := len(m1FIB); i < cfg.Routes; i++ {
		m1FIB = append(m1FIB, tables.Route{
			Prefix: uint64(141)<<24 | uint64(85)<<16 | uint64(i%250)<<8,
			Len:    24,
			Port:   0,
		})
	}
	d.RouteEntries = len(m1FIB)
	m1 := net.AddElement("m1", "router", 3, 3)
	if err := models.Router(m1, m1FIB, models.Egress); err != nil {
		panic(err)
	}
	d.FIBs["m1"] = m1FIB

	// --- Exit router: port 0 -> M1, port 1 -> Internet.
	exitFIB := tables.FIB{
		{Prefix: sefl.IPToNumber("141.85.37.0"), Len: 24, Port: 0},
		{Prefix: sefl.IPToNumber("192.168.137.0"), Len: 24, Port: 0}, // private: forwarded to M1 (the ISP does not, see §8.5)
		{Prefix: 0, Len: 0, Port: 1},
	}
	exit := net.AddElement("exit", "router", 2, 2)
	if err := models.Router(exit, exitFIB, models.Egress); err != nil {
		panic(err)
	}
	d.FIBs["exit"] = exitFIB

	// --- Leaf segments.
	internet := net.AddElement("internet", "sink", 1, 0)
	internet.SetInCode(0, sefl.NoOp{})
	labs := net.AddElement("labs", "sink", 1, 0)
	labs.SetInCode(0, sefl.NoOp{})
	// Management interfaces: any 192.168.137.0/24 destination terminates
	// here (switch telnet interfaces).
	mgmt := net.AddElement("mgmt", "sink", 2, 0)
	mgmt.SetInCode(core.WildcardPort, sefl.Constrain{C: sefl.Prefix{
		E: sefl.Ref{LV: sefl.IPDst}, Value: sefl.IPToNumber("192.168.137.0"), Len: 24}})
	// The L3 leg from M1 towards the management VLAN crosses M2's static
	// routes; the admins' fix (§8.5: "updating the static routes at M2")
	// turns it into a blackhole.
	mgmtgw := net.AddElement("mgmtgw", "staticroute", 1, 1)
	if cfg.Fixed {
		mgmtgw.SetInCode(0, sefl.Fail{Msg: "no route to management VLAN (static routes fixed at M2)"})
	} else {
		mgmtgw.SetInCode(0, sefl.Forward{Port: 0})
	}
	// Cluster switch: hosts inject at port 1; mgmt access via port 0.
	cluster := net.AddElement("cluster", "switch", 2, 2)
	cluster.SetInCode(core.WildcardPort, sefl.Forward{Port: 0})

	// --- Wiring (bidirectional pairs where traffic flows both ways).
	for s, name := range d.AccessSwitches {
		net.MustLink(name, 0, "agg", s)
		net.MustLink("agg", s, name, 0)
	}
	net.MustLink("agg", nA, "m2", 0)
	net.MustLink("m2", 0, "agg", nA)
	net.MustLink("m2", 1, "asa", 0) // inside
	net.MustLink("asa", 1, "m2", 1) // towards inside hosts
	net.MustLink("asa", 0, "m1", 0) // outside
	net.MustLink("m1", 0, "asa", 1)
	net.MustLink("m1", 2, "exit", 0)
	net.MustLink("exit", 0, "m1", 0)
	net.MustLink("exit", 1, "internet", 0)
	net.MustLink("m1", 1, "mgmtgw", 0) // the hole path (blackholed when fixed)
	net.MustLink("mgmtgw", 0, "mgmt", 0)
	net.MustLink("m2", 3, "mgmt", 1) // in-VLAN management access
	net.MustLink("m2", 2, "cluster", 0)
	net.MustLink("cluster", 0, "m2", 2) // cluster hosts reach the mgmt VLAN via M2
	return d
}

// AllPairs returns the canonical batch-verification scenario for the
// department network: one source per access switch (an office host port)
// plus the Internet-facing exit router, against the Internet, management,
// labs and access-switch targets. The benchmarks, the daemon and the tests
// share this so they measure the same pair set.
func (d *Department) AllPairs() (sources []core.PortRef, targets []string) {
	for _, asw := range d.AccessSwitches {
		sources = append(sources, core.PortRef{Elem: asw, Port: 1})
	}
	sources = append(sources, core.PortRef{Elem: "exit", Port: 1})
	targets = append([]string{"internet", "mgmt", "labs"}, d.AccessSwitches...)
	return sources, targets
}

// OfficePacket returns injection code for a packet from an office host:
// a TCP packet with the office host's source MAC, destined to the ASA at
// layer 2.
func (d *Department) OfficePacket(specializeDst bool) sefl.Instr {
	is := []sefl.Instr{sefl.NewTCPPacket()}
	if specializeDst {
		is = append(is,
			sefl.Constrain{C: sefl.Prefix{E: sefl.Ref{LV: sefl.IPSrc}, Value: sefl.IPToNumber("10.30.2.0"), Len: 24}},
			sefl.Constrain{C: sefl.NotC(sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: sefl.IPToNumber("10.0.0.0"), Len: 8})},
			sefl.Constrain{C: sefl.NotC(sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: sefl.IPToNumber("192.168.0.0"), Len: 16})},
		)
	}
	return sefl.Seq(is...)
}
