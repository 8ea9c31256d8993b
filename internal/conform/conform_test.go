package conform

import (
	"reflect"
	"strings"
	"testing"

	"symnet/internal/click"
	"symnet/internal/core"
	"symnet/internal/sefl"
)

// pipeline builds a harness from a Click configuration that declares the
// element under test as "dut"; packets are injected on dut's input 0.
func pipeline(t *testing.T, config string) Harness {
	t.Helper()
	cfg, err := click.ParseConfig(strings.NewReader(config))
	if err != nil {
		t.Fatal(err)
	}
	return Harness{Net: cfg.Net, Concrete: cfg.Concrete, Inject: core.PortRef{Elem: "dut", Port: 0}}
}

// runModes runs the procedure as Run does, under full loop detection, and
// again with loop detection off, and demands equal reports: the paths it
// solves must not depend on what the loop check reads of them.
func runModes(t *testing.T, h Harness, nRandom int, seed int64) *Report {
	t.Helper()
	rep, err := Run(h, nRandom, seed)
	if err != nil {
		t.Fatal(err)
	}
	off, err := run(h, nRandom, seed, core.Options{Loop: core.LoopOff})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, off) {
		t.Fatalf("reports differ by loop mode:\nfull %+v\noff  %+v", rep, off)
	}
	return rep
}

func TestConformCorrectMirror(t *testing.T) {
	rep := runModes(t, pipeline(t, "dut :: IPMirror();"), 50, 1)
	if !rep.OK() {
		t.Fatalf("correct IPMirror must conform: %v", rep.Mismatches)
	}
	if rep.PathsTested == 0 || rep.RandomTested != 50 {
		t.Fatalf("report %+v", rep)
	}
}

// TestConformCatchesIPMirrorBug reproduces §8.3: "Our model was incomplete:
// it only mirrored the IP addresses and not ports."
func TestConformCatchesIPMirrorBug(t *testing.T) {
	rep := runModes(t, pipeline(t, "dut :: IPMirrorBuggy();"), 0, 1)
	if rep.OK() {
		t.Fatal("buggy IPMirror model must be caught")
	}
	found := false
	for _, m := range rep.Mismatches {
		if strings.Contains(m.Reason, "TcpSrc") || strings.Contains(m.Reason, "TcpDst") {
			found = true
		}
	}
	if !found {
		t.Fatalf("mismatch must implicate the ports: %v", rep.Mismatches)
	}
}

// TestConformCatchesDecIPTTLBug reproduces §8.3's wrap-around bug: the
// buggy model forwards TTL-0 packets (as TTL 255); the implementation
// drops them.
func TestConformCatchesDecIPTTLBug(t *testing.T) {
	rep := runModes(t, pipeline(t, "dut :: DecIPTTLBuggy();"), 200, 2)
	if rep.OK() {
		t.Fatal("buggy DecIPTTL model must be caught")
	}
}

func TestConformCorrectDecIPTTL(t *testing.T) {
	rep := runModes(t, pipeline(t, "dut :: DecIPTTL();"), 200, 3)
	if !rep.OK() {
		t.Fatalf("correct DecIPTTL must conform: %v", rep.Mismatches)
	}
}

// TestConformCatchesHostEtherFilterBug reproduces §8.3: "we were wrongly
// checking the ethertype field". The buggy model rejects every packet the
// template can produce, so only the dictionary-biased random phase can
// expose the disagreement with the implementation.
func TestConformCatchesHostEtherFilterBug(t *testing.T) {
	h := pipeline(t, "dut :: HostEtherFilterBuggy(00:aa:00:aa:00:aa);")
	h.Dictionary = map[string][]uint64{
		"EtherDst": {sefl.MACToNumber("00:aa:00:aa:00:aa")},
	}
	rep := runModes(t, h, 100, 4)
	if rep.OK() {
		t.Fatal("buggy HostEtherFilter model must be caught")
	}
}

func TestConformCorrectHostEtherFilter(t *testing.T) {
	rep := runModes(t, pipeline(t, "dut :: HostEtherFilter(00:aa:00:aa:00:aa);"), 100, 5)
	if !rep.OK() {
		t.Fatalf("correct HostEtherFilter must conform: %v", rep.Mismatches)
	}
}

// dropPort0 is an implementation that drops TCP port 0, as the real Click
// did in the paper.
type dropPort0 struct{ click.Concrete }

func (d dropPort0) Process(in int, p *click.Packet) (int, *click.Packet, bool) {
	if p.TCP != nil && (p.TCP.Src == 0 || p.TCP.Dst == 0) {
		return 0, nil, false
	}
	return d.Concrete.Process(in, p)
}

// TestConformIPClassifierSolverZeros reproduces the §8.3 IPClassifier
// finding: the solver generates 0 values for unconstrained fields (e.g.
// port 0), which real implementations may drop. Our classifier treats port
// 0 as a normal value, so against a port-0-dropping implementation the
// unconstrained model must be caught.
func TestConformIPClassifierSolverZeros(t *testing.T) {
	h := pipeline(t, "dut :: IPClassifier(tcp);")
	h.Concrete["dut"] = dropPort0{h.Concrete["dut"]}
	rep := runModes(t, h, 0, 6)
	if rep.OK() {
		t.Fatal("port-0 dropping implementation must disagree with the unconstrained model")
	}
}

// TestConformTunnelWithoutL2: after a Strip the packet has no Ethernet
// header, and the tunnel elements' models and implementations agree on
// re-framing only a framed packet, on either side of the Strip.
func TestConformTunnelWithoutL2(t *testing.T) {
	for _, config := range []string{
		"dut :: Strip(14); enc :: IPEncap(1.0.0.1, 2.0.0.1); dut -> enc",
		"dut :: Strip(14); enc :: IPEncap(1.0.0.1, 2.0.0.1); dec :: IPDecap(); dut -> enc -> dec",
		"dut :: IPEncap(1.0.0.1, 2.0.0.1); s :: Strip(14); dec :: IPDecap(); dut -> s -> dec",
	} {
		rep := runModes(t, pipeline(t, config), 20, 1)
		if !rep.OK() || rep.PathsTested == 0 {
			t.Errorf("%q: %d paths tested, mismatches %v", config, rep.PathsTested, rep.Mismatches)
		}
	}
}
