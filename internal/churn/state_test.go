package churn

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/prog"
	"symnet/internal/sefl"
	"symnet/internal/tables"
	"symnet/internal/verify"
)

// TestStateRoundTrip: export after churn, restore into a fresh service of the
// same topology, and pin the restored report byte-identical to the donor's —
// which itself is byte-identical to from-scratch (differential tests), so
// the invariant carries through snapshot/restore.
func TestStateRoundTrip(t *testing.T) {
	donor := newDiffService(t, 2)
	fds, err := GenFIBDeltas("rt", diffFIB(), "10.128.0.0/9", 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.applyBatch(fds); err != nil {
		t.Fatal(err)
	}

	st := donor.exportState()
	if st.Schema != stateSchema || st.Version != donor.current().Version {
		t.Fatalf("export: %+v vs version %d", st, donor.current().Version)
	}
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}

	fresh := newDiffService(t, 2) // still at the seed tables, version 1
	pub, err := fresh.restoreState(rt)
	if err != nil {
		t.Fatal(err)
	}
	// Version lifted past the snapshot's (2): restore publishes 3.
	if pub.Version != st.Version+1 {
		t.Fatalf("restored version %d, want %d", pub.Version, st.Version+1)
	}
	if fresh.current() != pub {
		t.Fatal("restore did not publish")
	}
	compareReports(t, "restored vs donor", pub.Report, donor.current().Report)

	// Tables round-tripped exactly.
	df := slices.Clone(donor.routers["rt"])
	ff := slices.Clone(fresh.routers["rt"])
	if len(df) != len(ff) {
		t.Fatalf("restored FIB has %d routes, donor %d", len(ff), len(df))
	}

	// Restore keeps versions monotone even when the snapshot is older than
	// the target's current version.
	for i := 0; i < 4; i++ {
		if _, err := fresh.apply(Delta{Elem: "rt", Op: OpInsert, Prefix: "200.0.0.0/8", Port: 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.apply(Delta{Elem: "rt", Op: OpDelete, Prefix: "200.0.0.0/8"}); err != nil {
			t.Fatal(err)
		}
	}
	before := fresh.current().Version
	pub2, err := fresh.restoreState(rt)
	if err != nil {
		t.Fatal(err)
	}
	if pub2.Version != before+1 {
		t.Fatalf("restore rewound version: %d after %d", pub2.Version, before)
	}
	compareReports(t, "re-restored vs donor", pub2.Report, donor.current().Report)

	// Deltas keep applying after a restore.
	if _, err := fresh.apply(Delta{Elem: "rt", Op: OpInsert, Prefix: "201.0.0.0/8", Port: 1}); err != nil {
		t.Fatalf("apply after restore: %v", err)
	}
}

func TestStateValidation(t *testing.T) {
	svc := newDiffService(t, 1)

	if _, err := ReadState(strings.NewReader(`{"schema":99}`)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch accepted: %v", err)
	}
	if _, err := ReadState(strings.NewReader(`{garbage`)); err == nil {
		t.Fatal("malformed snapshot accepted")
	}

	st := svc.exportState()
	delete(st.Routers, "rt")
	if _, err := svc.restoreState(st); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("router set mismatch accepted: %v", err)
	}
	st2 := svc.exportState()
	st2.Schema = 7
	if _, err := svc.restoreState(st2); err == nil {
		t.Fatal("wrong-schema restore accepted")
	}

	// Rows the text parsers refuse are refused on read and on restore; a
	// length-40 route reaching tables.CompileLPM would panic it.
	for _, bad := range []func(*State){
		func(st *State) { st.Routers["rt"] = tables.FIB{{Prefix: 0x0A000000, Len: 40, Port: 0}} },
		func(st *State) { st.Routers["rt"] = tables.FIB{{Prefix: 0x0A000001, Len: 8, Port: 0}} },
		func(st *State) { st.Routers["rt"] = tables.FIB{{Prefix: 0x0A000000, Len: 8, Port: -1}} },
		func(st *State) { st.Switches["sw"] = tables.MACTable{{MAC: 1 << 48, Port: 0}} },
		func(st *State) { st.Switches["sw"] = tables.MACTable{{MAC: 1, VLAN: -1, Port: 0}} },
	} {
		st := svc.exportState()
		bad(st)
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadState(&buf); err == nil || !strings.Contains(err.Error(), "snapshot") {
			t.Fatalf("malformed row read: %v", err)
		}
		if _, err := svc.restoreState(st); err == nil {
			t.Fatal("malformed row restored")
		}
	}

	// A snapshot the models refuse in part — rt shortened to one route,
	// sw's table empty, or a route to a port rt does not have — is refused
	// whole: tables, models, version and report stay as they were.
	fib, macs, pub := slices.Clone(svc.routers["rt"]), slices.Clone(svc.switches["sw"]), svc.current()
	for _, tc := range []struct {
		name, want string
		edit       func(*State)
	}{
		{"half valid", "empty table", func(st *State) {
			st.Routers["rt"] = st.Routers["rt"][:1]
			st.Switches["sw"] = tables.MACTable{}
		}},
		{"port out of range", "output ports", func(st *State) {
			st.Routers["rt"] = append(st.Routers["rt"][:1:1], tables.Route{Prefix: 0x5A000000, Len: 8, Port: 3})
		}},
	} {
		st := svc.exportState()
		tc.edit(st)
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		read, err := ReadState(&buf)
		if err != nil {
			t.Fatalf("%s: rows are valid, read refused: %v", tc.name, err)
		}
		if _, err := svc.restoreState(read); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: restore = %v, want an error about %q", tc.name, err, tc.want)
		}
		if !slices.Equal(svc.routers["rt"], fib) || !slices.Equal(svc.switches["sw"], macs) {
			t.Fatalf("%s: refused restore changed the tables: rt %d routes (was %d), sw %d entries (was %d)",
				tc.name, len(svc.routers["rt"]), len(fib), len(svc.switches["sw"]), len(macs))
		}
		if svc.current() != pub {
			t.Fatalf("%s: refused restore published version %d (was %d)", tc.name, svc.current().Version, pub.Version)
		}
		live, err := verify.AllPairsReachability(svc.cfg.Net, svc.cfg.Sources, svc.cfg.Packet, svc.cfg.Targets, svc.cfg.Opts, dist.InProcess(1, nil))
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, tc.name+": live models after a refused restore", live, pub.Report)
	}
}

// refreshRecorder is a Runner that records every entry it is sent to
// Refresh.
type refreshRecorder struct {
	dist.Runner
	refs []core.PortRef
}

func (r *refreshRecorder) Refresh(refs ...core.PortRef) {
	r.refs = append(r.refs, refs...)
	r.Runner.Refresh(refs...)
}

// TestRestoreInstallsOnlyWhatDiffers: restoring the state just exported
// finds every element's code equal to its snapshot table's, so it installs
// nothing: every router and switch entry keeps its compiled program, the
// runner is sent no entry to refresh, and the restored report equals the
// exported version's.
func TestRestoreInstallsOnlyWhatDiffers(t *testing.T) {
	runner := &refreshRecorder{Runner: dist.InProcess(2, nil)}
	svc := NewService(Config{
		Net:     buildDiffNet(t, diffFIB(), diffMACs()),
		Sources: []core.PortRef{{Elem: "sw", Port: 1}, {Elem: "sw", Port: 2}},
		Targets: []string{"hosts", "net0", "net1", "net2"},
		Packet:  sefl.NewTCPPacket(),
		Opts:    core.Options{Trace: true},
		Runner:  runner,
	})
	svc.RegisterRouter("rt", diffFIB())
	svc.RegisterSwitch("sw", diffMACs())
	if err := svc.Init(); err != nil {
		t.Fatal(err)
	}
	fds, err := GenFIBDeltas("rt", diffFIB(), "10.128.0.0/9", 6, 13)
	if err != nil {
		t.Fatal(err)
	}
	mds, err := GenMACDeltas("sw", diffMACs(), 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.applyBatch(append(fds, mds...)); err != nil {
		t.Fatal(err)
	}
	core.Warm(svc.cfg.Net)

	type entry struct {
		elem string
		port int
		out  bool
	}
	programs := map[entry]*prog.Program{}
	for _, name := range []string{"rt", "sw"} {
		e, _ := svc.cfg.Net.Element(name)
		for _, out := range []bool{false, true} {
			n := e.NumIn
			if out {
				n = e.NumOut
			}
			for p := core.WildcardPort; p < n; p++ {
				if pr, ok := e.CachedProgram(p, out); ok {
					programs[entry{name, p, out}] = pr
				}
			}
		}
	}
	if len(programs) == 0 {
		t.Fatal("no compiled program to keep")
	}
	runner.refs = nil
	exported := svc.current().Report
	pub, err := svc.restoreState(svc.exportState())
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range programs {
		e, _ := svc.cfg.Net.Element(k.elem)
		if got, ok := e.CachedProgram(k.port, k.out); !ok || got != want {
			t.Errorf("%s port %d (out %v): compiled program replaced by the restore", k.elem, k.port, k.out)
		}
	}
	if len(runner.refs) != 0 {
		t.Errorf("restore sent the runner %d entries to refresh: %v", len(runner.refs), runner.refs)
	}
	compareReports(t, "restored vs exported", pub.Report, exported)
}
