package experiments

import (
	"slices"
	"strings"
	"testing"

	"symnet/internal/conform"
	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/models"
	"symnet/internal/sefl"
)

func TestTable1Shape(t *testing.T) {
	rows := Table1(3)
	for _, r := range rows {
		if r.Paths != r.PaperPaths {
			t.Errorf("length %d: paths %d, paper %d", r.Length, r.Paths, r.PaperPaths)
		}
	}
}

func TestTable3BothToolsAgree(t *testing.T) {
	rows, err := Table3(8, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %v", rows)
	}
	for _, r := range rows {
		t.Logf("%-7s gen=%v run=%v reached=%d", r.Tool, r.GenTime, r.RunTime, r.Reached)
		if r.Reached == 0 {
			t.Errorf("%s reached nothing", r.Tool)
		}
	}
}

func TestTable4Rows(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("rows %v", rows)
	}
	for _, r := range rows {
		t.Logf("%-32s klee=%-28s symnet=%s", r.Property, r.Klee, r.SymNet)
		if r.SymNet == "FAILED" {
			t.Errorf("SymNet verdict failed for %q", r.Property)
		}
	}
}

func TestTable5AllVerified(t *testing.T) {
	for _, r := range Table5() {
		if !r.Verified {
			t.Errorf("capability %q not verified", r.Capability)
		}
	}
}

// TestTable5ChecksCatchBrokenModels: each NAT and encryption check reads
// false on a network that breaks what it checks.
func TestTable5ChecksCatchBrokenModels(t *testing.T) {
	forward := func(e *core.Element, port, to int) {
		e.SetInCode(port, sefl.Forward{Port: to})
	}
	// The model's own local state, which a broken outside port may skip
	// checking but not restoring.
	local := func(name string) sefl.Meta { return sefl.Meta{Name: name, Local: true} }
	for name, nat := range map[string]func(*core.Element, models.NATConfig){
		"no rewrite": func(e *core.Element, cfg models.NATConfig) {
			forward(e, cfg.Inside, cfg.ToOut)
			forward(e, cfg.Outside, cfg.ToIn)
		},
		"no translation back": func(e *core.Element, cfg models.NATConfig) {
			models.NAT(e, cfg)
			forward(e, cfg.Outside, cfg.ToIn)
		},
		"no mapping check": func(e *core.Element, cfg models.NATConfig) {
			models.NAT(e, cfg)
			e.SetInCode(cfg.Outside, sefl.Seq(
				sefl.Assign{LV: sefl.IPDst, E: sefl.Ref{LV: local("orig-ip")}},
				sefl.Assign{LV: sefl.TcpDst, E: sefl.Ref{LV: local("orig-port")}},
				sefl.Forward{Port: cfg.ToIn},
			))
		},
	} {
		if natHolds(nat) {
			t.Errorf("NAT with %s passes the NAT checks", name)
		}
	}
	if !natHolds(models.NAT) {
		t.Error("the NAT model fails the NAT checks")
	}
	if encryptionHolds(111, 222) {
		t.Error("decryption with the wrong key passes the encryption checks")
	}
}

func TestSplitTCPFindings(t *testing.T) {
	fs, err := SplitTCP()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 5 {
		t.Fatalf("findings: %v", fs)
	}
	for _, f := range fs {
		t.Logf("%-28s %s ok=%v", f.Scenario, f.Detail, f.OK)
		if !f.OK {
			t.Errorf("scenario %q failed", f.Scenario)
		}
	}
}

// TestConformanceRows pins the §8.3 row: every correct class conforms, on
// at least one solved path except Discard (which delivers none), and each
// buggy model is caught for the paper's reason.
func TestConformanceRows(t *testing.T) {
	rows, err := Conformance()
	if err != nil {
		t.Fatal(err)
	}
	because := map[string]func(conform.Mismatch) bool{
		// "it only mirrored the IP addresses and not ports"
		"IPMirrorBuggy": func(m conform.Mismatch) bool {
			return strings.Contains(m.Reason, "field TcpSrc") || strings.Contains(m.Reason, "field TcpDst")
		},
		// TTL 0 wraps to 255 in the model; the implementation drops it.
		"DecIPTTLBuggy": func(m conform.Mismatch) bool {
			return m.Packet.IP[0].TTL == 0 && strings.Contains(m.Reason, "implementation drops")
		},
		// The model checks the ethertype, so only a random packet to the
		// host's MAC shows the implementation delivering.
		"HostEtherFilterBuggy": func(m conform.Mismatch) bool {
			return m.PathID == -1 && strings.Contains(m.Reason, "implementation delivers")
		},
	}
	caught := 0
	for _, r := range rows {
		t.Logf("%-22s %s ok=%v", r.Class, r.Detail, r.OK)
		if !r.OK {
			t.Errorf("%s: row FAILED: %s", r.Class, r.Detail)
		}
		if why, buggy := because[r.Class]; buggy {
			caught++
			if !slices.ContainsFunc(r.Report.Mismatches, why) {
				t.Errorf("%s not caught for the paper's reason: %v", r.Class, r.Report.Mismatches)
			}
			continue
		}
		if !r.Report.OK() || r.Report.PathsTested == 0 && r.Class != "Discard" {
			t.Errorf("%s: report %+v", r.Class, r.Report)
		}
	}
	if len(rows) != 15 || caught != 3 {
		t.Fatalf("%d rows, %d buggy; want 12 correct configurations and 3 buggy models", len(rows), caught)
	}
}

func deptCfg(fixed bool) datasets.DepartmentConfig {
	return datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Fixed: fixed, Seed: 5}
}

func TestDepartmentFindings(t *testing.T) {
	fs, _, err := Department(deptCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Logf("%-44s %s ok=%v", f.Name, f.Detail, f.OK)
		if !f.OK {
			t.Errorf("finding %q failed", f.Name)
		}
	}
}

func TestDepartmentFix(t *testing.T) {
	fs, _, err := Department(deptCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if !f.OK {
			t.Errorf("post-fix finding %q failed (%s)", f.Name, f.Detail)
		}
	}
}
