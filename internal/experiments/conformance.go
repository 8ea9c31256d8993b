package experiments

import (
	"fmt"
	"strings"

	"symnet/internal/click"
	"symnet/internal/conform"
	"symnet/internal/core"
	"symnet/internal/sefl"
)

// --- Model conformance (§8.3) ---

// conformRow is one §8.3 conformance run: a Click configuration whose
// element "dut" takes the injected packet. A correct model must agree with
// its implementation; a *Buggy one must be caught.
type conformRow struct {
	Class  string
	Report *conform.Report
	Detail string
	OK     bool
}

// hostMAC is the HostEtherFilter address. A uniform 48-bit draw never hits
// it, so the random phase of its rows draws EtherDst from a dictionary
// holding it.
const hostMAC = "00:aa:00:aa:00:aa"

// conformConfigs holds one small configuration per Click element class the
// parser builds, then the paper's three buggy models.
var conformConfigs = []struct{ class, config string }{
	{"IPMirror", "dut :: IPMirror()"},
	{"DecIPTTL", "dut :: DecIPTTL()"},
	{"HostEtherFilter", "dut :: HostEtherFilter(" + hostMAC + ")"},
	{"IPClassifier", "dut :: IPClassifier(tcp dst port 80, src host 10.0.0.1, tcp)"},
	{"IPRewriter", "dut :: IPRewriter()\nm :: IPMirror()\ndut[0] -> m -> [1]dut"},
	{"EtherEncap", "dut :: EtherEncap(0x0800, 00:00:00:00:00:01, 00:00:00:00:00:02)"},
	{"Strip", "dut :: Strip(14)"},
	{"CheckIPHeader", "dut :: CheckIPHeader()"},
	{"Discard", "dut :: Discard()"},
	{"Queue", "dut :: Queue()"},
	{"IPEncap -> IPDecap", "dut :: IPEncap(1.0.0.1, 2.0.0.1)\ndec :: IPDecap()\ndut -> dec"},
	{"Strip -> IPEncap", "dut :: Strip(14)\nenc :: IPEncap(1.0.0.1, 2.0.0.1)\ndut -> enc"},
	{"IPMirrorBuggy", "dut :: IPMirrorBuggy()"},
	{"DecIPTTLBuggy", "dut :: DecIPTTLBuggy()"},
	{"HostEtherFilterBuggy", "dut :: HostEtherFilterBuggy(" + hostMAC + ")"},
}

// Conformance parses each configuration and runs the §8.3 procedure on it
// (every delivered path solved and replayed, then 100 random packets).
func Conformance() ([]conformRow, error) {
	var rows []conformRow
	for i, c := range conformConfigs {
		cfg, err := click.ParseConfig(strings.NewReader(c.config))
		if err != nil {
			return nil, fmt.Errorf("conformance %s: %w", c.class, err)
		}
		h := conform.Harness{Net: cfg.Net, Concrete: cfg.Concrete, Inject: core.PortRef{Elem: "dut"}}
		if strings.HasPrefix(c.class, "HostEtherFilter") {
			h.Dictionary = map[string][]uint64{"EtherDst": {sefl.MACToNumber(hostMAC)}}
		}
		rep, err := conform.Run(h, 100, int64(i+1))
		if err != nil {
			return nil, fmt.Errorf("conformance %s: %w", c.class, err)
		}
		buggy := strings.HasSuffix(c.class, "Buggy")
		// A buggy model reproduces only when the run catches it.
		r := conformRow{Class: c.class, Report: rep, OK: rep.OK() != buggy}
		switch {
		case rep.OK():
			r.Detail = fmt.Sprintf("%d paths, %d random packets agree", rep.PathsTested, rep.RandomTested)
		case buggy:
			r.Detail = fmt.Sprintf("caught, %d mismatch(es): %s", len(rep.Mismatches), rep.Mismatches[0].Reason)
		default:
			r.Detail = rep.Mismatches[0].String()
		}
		rows = append(rows, r)
	}
	return rows, nil
}
