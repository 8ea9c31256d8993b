package symnet

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"symnet/internal/datasets"
	"symnet/internal/obs"
	"symnet/internal/sefl"
)

// The serving fixture: a switch fronting three host segments and an
// upstream router with three networks behind it (the same shape as the
// churn differential fixture, built through the facade only — Serve
// installs the router/switch models from the tables).
func sessionFIB() FIB {
	return FIB{
		{Prefix: 0x0A000000, Len: 8, Port: 0},  // 10.0.0.0/8
		{Prefix: 0x0A010000, Len: 16, Port: 1}, // 10.1.0.0/16
		{Prefix: 0x0A010200, Len: 24, Port: 2}, // 10.1.2.0/24
		{Prefix: 0x14000000, Len: 8, Port: 1},  // 20.0.0.0/8
		{Prefix: 0x1E000000, Len: 8, Port: 2},  // 30.0.0.0/8
		{Prefix: 0x28000000, Len: 8, Port: 0},  // 40.0.0.0/8
		{Prefix: 0x32000000, Len: 8, Port: 1},  // 50.0.0.0/8
		{Prefix: 0, Len: 0, Port: 0},           // default
	}
}

func sessionMACs() MACTable {
	t := MACTable{{MAC: 0x02AA00000001, Port: 0}}
	for p := 1; p <= 3; p++ {
		for h := 0; h < 4; h++ {
			t = append(t, MACEntry{MAC: uint64(0x020000000000) | uint64(p)<<8 | uint64(h), Port: p})
		}
	}
	return t
}

func buildSessionNet(t *testing.T) *Network {
	t.Helper()
	net := NewNetwork()
	net.AddElement("sw", "switch", 4, 4)
	net.AddElement("rt", "router", 1, 3)
	hosts := net.AddElement("hosts", "sink", 3, 0)
	hosts.SetInCode(WildcardPort, sefl.NoOp{})
	net.MustLink("sw", 0, "rt", 0)
	for p := 1; p <= 3; p++ {
		net.MustLink("sw", p, "hosts", p-1)
	}
	for p := 0; p < 3; p++ {
		sink := net.AddElement(fmt.Sprintf("net%d", p), "sink", 1, 0)
		sink.SetInCode(0, sefl.NoOp{})
		net.MustLink("rt", p, sink.Name, 0)
	}
	return net
}

func sessionServe(t *testing.T, sess *Session) *Serving {
	t.Helper()
	srv, err := sess.Serve(ServeConfig{
		Sources:  []PortRef{{Elem: "sw", Port: 1}, {Elem: "sw", Port: 2}},
		Targets:  []string{"hosts", "net0", "net1", "net2"},
		Packet:   sefl.NewTCPPacket(),
		Routers:  map[string]FIB{"rt": sessionFIB()},
		Switches: map[string]MACTable{"sw": sessionMACs()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func compareResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats mismatch:\n got %+v\nwant %+v", label, got.Stats, want.Stats)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("%s: path count %d != %d", label, len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		g, w := got.Paths[i], want.Paths[i]
		if g.ID != w.ID || g.Status != w.Status || g.FailMsg != w.FailMsg {
			t.Fatalf("%s: path %d header mismatch: {%d %v %q} != {%d %v %q}",
				label, i, g.ID, g.Status, g.FailMsg, w.ID, w.Status, w.FailMsg)
		}
		if !reflect.DeepEqual(g.Trace, w.Trace) {
			t.Fatalf("%s: path %d trace mismatch", label, i)
		}
		if !reflect.DeepEqual(g.History(), w.History()) {
			t.Fatalf("%s: path %d history mismatch", label, i)
		}
	}
}

func compareAllPairs(t *testing.T, label string, got, want *AllPairsReport) {
	t.Helper()
	if !reflect.DeepEqual(got.Reachable, want.Reachable) {
		t.Fatalf("%s: reachability mismatch:\n got %v\nwant %v", label, got.Reachable, want.Reachable)
	}
	if !reflect.DeepEqual(got.PathCount, want.PathCount) {
		t.Fatalf("%s: path count mismatch:\n got %v\nwant %v", label, got.PathCount, want.PathCount)
	}
	for i := range want.Results {
		compareResults(t, fmt.Sprintf("%s: source %d", label, i), got.Results[i], want.Results[i])
	}
}

// TestSessionWorkerSemantics pins the rule in Session's type comment on
// every entry point: for RunBatch, AllPairs and Serve alike Options.Workers 0
// and 1 are one job at a time, > 1 is that many workers, < 0 is all cores,
// and Run never reaches the scheduler. The width is read off the scheduler's
// per-worker instruments (sched.w<k>.task_ns): Run's is 0 at every setting, a
// one-at-a-time batch is a queue of one. The fixture has four sources, so the
// job count does not cap the width below the widest case (GOMAXPROCS, pinned
// to 4 here).
func TestSessionWorkerSemantics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const fan = 4
	var sources []PortRef
	var targets []string
	ports := make([]int, fan)
	build := func() *Network {
		net := NewNetwork()
		net.AddElement("fan", "fan", fan, fan).SetInCode(WildcardPort, sefl.Fork{Ports: ports})
		for p := 0; p < fan; p++ {
			sink := net.AddElement(fmt.Sprintf("sink%d", p), "sink", 1, 0)
			sink.SetInCode(0, sefl.NoOp{})
			net.MustLink("fan", p, sink.Name, 0)
		}
		return net
	}
	for p := 0; p < fan; p++ {
		ports[p] = p
		sources = append(sources, PortRef{Elem: "fan", Port: p})
		targets = append(targets, fmt.Sprintf("sink%d", p))
	}
	entries := []struct {
		name string
		call func(*Session) error
	}{
		{"Run", func(s *Session) error {
			_, err := s.Run(sources[0], sefl.NewTCPPacket())
			return err
		}},
		{"RunBatch", func(s *Session) error {
			var jobs []BatchJob
			for _, src := range sources {
				jobs = append(jobs, BatchJob{Name: src.String(), Inject: src, Packet: sefl.NewTCPPacket()})
			}
			for _, jr := range s.RunBatch(jobs) {
				if jr.Err != nil {
					return jr.Err
				}
			}
			return nil
		}},
		{"AllPairs", func(s *Session) error {
			_, err := s.AllPairs(sources, sefl.NewTCPPacket(), targets)
			return err
		}},
		{"Serve", func(s *Session) error {
			srv, err := s.Serve(ServeConfig{Sources: sources, Targets: targets, Packet: sefl.NewTCPPacket()})
			if err == nil {
				srv.Close()
			}
			return err
		}},
	}
	for _, tc := range []struct{ workers, run, batch int }{
		{workers: -1, run: 0, batch: 4},
		{workers: 0, run: 0, batch: 1},
		{workers: 1, run: 0, batch: 1},
		{workers: 3, run: 0, batch: 3},
	} {
		for _, e := range entries {
			reg := obs.NewRegistry()
			sess, err := Compile(build(), Options{Workers: tc.workers, Obs: obs.New(reg, nil)})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.call(sess); err != nil {
				t.Fatalf("Workers=%d %s: %v", tc.workers, e.name, err)
			}
			width := 0
			for name := range reg.Snapshot().Hists {
				if strings.HasPrefix(name, "sched.w") && strings.HasSuffix(name, ".task_ns") {
					width++
				}
			}
			want := tc.batch
			if e.name == "Run" {
				want = tc.run
			}
			if width != want {
				t.Errorf("Workers=%d %s: scheduler width %d, want %d", tc.workers, e.name, width, want)
			}
		}
	}
}

// registeredFuncs counts the counter funcs registered on reg. The registry
// exposes no count, so the test reads its private map through reflection.
func registeredFuncs(reg *obs.Registry) int {
	n := 0
	for it := reflect.ValueOf(reg).Elem().FieldByName("funcs").MapRange(); it.Next(); {
		n += it.Value().Len()
	}
	return n
}

// TestAllPairsRegistryDoesNotGrow: a resident session queries the same
// registry batch after batch, so a batch must leave nothing registered
// behind — counter funcs append and are never removed. Twenty AllPairs calls
// leave exactly as many funcs as one.
func TestAllPairsRegistryDoesNotGrow(t *testing.T) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 12, Routes: 20, Seed: 5})
	sources, targets := d.AllPairs()
	reg := obs.NewRegistry()
	sess, err := Compile(d.Net, Options{MaxHops: 64, Workers: 2, Obs: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	var once int
	for i := 1; i <= 20; i++ {
		if _, err := sess.AllPairs(sources, sefl.NewTCPPacket(), targets); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			once = registeredFuncs(reg)
		}
	}
	if got := registeredFuncs(reg); got != once {
		t.Fatalf("20 AllPairs calls left %d registered counter funcs, one call %d", got, once)
	}
}

// TestSessionServeChurn drives the full serving surface through the facade:
// Serve models the elements and publishes version 1 equal to a direct
// AllPairs; Apply absorbs deltas with per-delta statuses; Watch streams the
// version; snapshot export/restore round-trips; and the post-churn resident
// report is byte-identical to a from-scratch serving of the mutated tables.
func TestSessionServeChurn(t *testing.T) {
	sources := []PortRef{{Elem: "sw", Port: 1}, {Elem: "sw", Port: 2}}
	targets := []string{"hosts", "net0", "net1", "net2"}
	sess, err := Compile(buildSessionNet(t), Options{Trace: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := sessionServe(t, sess)
	if v := srv.Current().Version; v != 1 {
		t.Fatalf("version after Serve = %d, want 1", v)
	}
	direct, err := sess.AllPairs(sources, sefl.NewTCPPacket(), targets)
	if err != nil {
		t.Fatal(err)
	}
	compareAllPairs(t, "Serve init vs AllPairs", srv.Current().Report, direct)

	sub := srv.Watch(8)
	ctx := context.Background()

	// Mixed Apply: one applicable insert, one delete of a missing route.
	rep, err := srv.Apply(ctx,
		Delta{Elem: "rt", Op: OpInsert, Prefix: "99.0.0.0/8", Port: 1},
		Delta{Elem: "rt", Op: OpDelete, Prefix: "1.2.3.0/24"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 1 || rep.Batch == nil || rep.Batch.Version != 2 {
		t.Fatalf("mixed apply: %+v", rep)
	}
	if !rep.Statuses[0].Applied || rep.Statuses[1].Applied || rep.Statuses[1].Err == "" {
		t.Fatalf("mixed apply statuses: %+v", rep.Statuses)
	}
	select {
	case ev := <-sub.Events:
		if ev.Version != 2 {
			t.Fatalf("watch event version %d, want 2", ev.Version)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch event for version 2 never arrived")
	}
	if evs, ok := srv.TransitionsSince(1); !ok || len(evs) != 1 || evs[0].Version != 2 {
		t.Fatalf("TransitionsSince(1) = %v, %v", evs, ok)
	}
	sub.Cancel()

	// Snapshot round-trip through the serialized form.
	st, err := srv.Export(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadServingState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v2Report := srv.Current().Report
	if _, err := srv.Apply(ctx, Delta{Elem: "rt", Op: OpDelete, Prefix: "10.1.2.0/24"}); err != nil {
		t.Fatal(err)
	}
	pub, err := srv.Restore(ctx, st2)
	if err != nil {
		t.Fatal(err)
	}
	if pub.Version != 4 {
		t.Fatalf("version after restore = %d, want 4 (monotone past the delete)", pub.Version)
	}
	compareAllPairs(t, "restore vs exported version", pub.Report, v2Report)

	// The resident report after churn is byte-identical to a from-scratch
	// serving of the mutated tables (the facade-level differential pin).
	sess2, err := Compile(buildSessionNet(t), Options{Trace: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := sess2.Serve(ServeConfig{
		Sources: sources, Targets: targets, Packet: sefl.NewTCPPacket(),
		Routers:  map[string]FIB{"rt": append(sessionFIB(), Route{Prefix: 0x63000000, Len: 8, Port: 1})},
		Switches: map[string]MACTable{"sw": sessionMACs()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	compareAllPairs(t, "post-churn vs from-scratch", srv.Current().Report, srv2.Current().Report)
}

// TestSessionServeErrors pins the facade's error surface: an unknown
// element, and a session under the AST interpreter, which cannot serve.
func TestSessionServeErrors(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Fatal("Compile(nil) succeeded")
	}
	sess, err := Compile(buildSessionNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Serve(ServeConfig{
		Sources: []PortRef{{Elem: "sw", Port: 1}},
		Targets: []string{"hosts"},
		Packet:  sefl.NewTCPPacket(),
		Routers: map[string]FIB{"nosuch": sessionFIB()},
	}); err == nil {
		t.Fatal("Serve with unknown router element succeeded")
	}
	ast, err := Compile(buildSessionNet(t), Options{ASTInterp: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ast.Serve(ServeConfig{
		Sources: []PortRef{{Elem: "sw", Port: 1}},
		Targets: []string{"hosts"},
		Packet:  sefl.NewTCPPacket(),
	}); err == nil || !strings.Contains(err.Error(), "ASTInterp") {
		t.Fatalf("Serve under the AST interpreter: %v, want a refusal naming it", err)
	}
}

// TestServeRefusesBeforeModeling: a config Serve refuses changes nothing.
// On the default department, a Serve call that changes one route and names
// an unknown switch fails, and every router entry keeps its code and its
// compiled program.
func TestServeRefusesBeforeModeling(t *testing.T) {
	d := datasets.NewDepartment(datasets.DefaultDepartment())
	sess, err := Compile(d.Net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		code sefl.Instr
		prog any
	}
	snapshot := func() map[string]entry {
		m := map[string]entry{}
		for name := range d.FIBs {
			e, _ := d.Net.Element(name)
			for _, out := range []bool{false, true} {
				n := e.NumIn
				if out {
					n = e.NumOut
				}
				for p := WildcardPort; p < n; p++ {
					code, _ := e.Code(p, out)
					pr, _ := e.CachedProgram(p, out)
					m[fmt.Sprintf("%s %d %v", name, p, out)] = entry{code, pr}
				}
			}
		}
		return m
	}
	before := snapshot()
	routers := map[string]FIB{}
	for name, fib := range d.FIBs {
		routers[name] = append(FIB(nil), fib...)
	}
	m1, _ := d.Net.Element("m1")
	routers["m1"][0].Port = (routers["m1"][0].Port + 1) % m1.NumOut
	switches := map[string]MACTable{"nosuch": sessionMACs()}
	for name, tbl := range d.MACTables {
		switches[name] = tbl
	}
	src, tgt := d.AllPairs()
	if _, err := sess.Serve(ServeConfig{Sources: src, Targets: tgt, Packet: sefl.NewTCPPacket(), Routers: routers, Switches: switches}); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("Serve naming an unknown switch: %v, want an error naming it", err)
	}
	after := snapshot()
	for k, was := range before {
		if now := after[k]; !reflect.DeepEqual(now.code, was.code) || now.prog != was.prog {
			t.Errorf("%s: a refused Serve replaced the code or its compiled program", k)
		}
	}
}

// TestCompileWarmsProgramsAndSummaries pins what Compile leaves for the
// first query to do: nothing. Every element-port program is compiled (and,
// being its element's summary, is all the engine walks), so the first Run
// serves every port visit from the program cache and compiles none. (The
// compiler still runs in it: the network compiles injection code on the
// first query that injects it, and For bodies are keyed by runtime
// metadata, so prog.compile.count is not zero.)
func TestCompileWarmsProgramsAndSummaries(t *testing.T) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 8, Routes: 12, Seed: 5})
	reg := obs.NewRegistry()
	sess, err := Compile(d.Net, Options{MaxHops: 64, Obs: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(PortRef{Elem: "asw0", Port: 1}, d.OfficePacket(false)); err != nil {
		t.Fatal(err)
	}
	first := reg.Snapshot().Counters
	if n := first["core.progcache.hits"]; n == 0 {
		t.Fatal("first Run found no compiled program in the cache; the engine did not run on the warmed cache")
	}
	if n := first["core.progcache.misses"]; n != 0 {
		t.Errorf("first Run after Compile compiled %d port programs, want 0", n)
	}
}

// TestSessionServeInstruments pins that a registry attached to the session
// sees the serving path too — the engine's and the churn service's
// instruments from an Apply land in the caller's snapshot — and that it
// stays inert: the same deltas publish the same versions and the same report
// bytes with and without it.
func TestSessionServeInstruments(t *testing.T) {
	serve := func(o *obs.Obs) *Serving {
		sess, err := Compile(buildSessionNet(t), Options{Trace: true, Workers: 2, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		return sessionServe(t, sess)
	}
	reg := obs.NewRegistry()
	plain, observed := serve(nil), serve(obs.New(reg, nil))
	compareAllPairs(t, "initial report, registry vs none", observed.Current().Report, plain.Current().Report)

	before := reg.Snapshot().Counters
	delta := Delta{Elem: "rt", Op: OpInsert, Prefix: "99.0.0.0/8", Port: 1}
	for _, srv := range []*Serving{plain, observed} {
		if rep, err := srv.Apply(context.Background(), delta); err != nil || rep.Applied != 1 {
			t.Fatalf("apply: %+v, %v", rep, err)
		}
	}
	if plain.Current().Version != observed.Current().Version {
		t.Fatalf("published versions diverge: %d without a registry, %d with", plain.Current().Version, observed.Current().Version)
	}
	compareAllPairs(t, "post-delta report, registry vs none", observed.Current().Report, plain.Current().Report)

	after := reg.Snapshot()
	if grew := after.Counters["core.progcache.hits"] - before["core.progcache.hits"]; grew <= 0 {
		t.Errorf("core.progcache.hits grew by %d over one Apply, want > 0 (the serving path's engine counters are hidden)", grew)
	}
	for _, name := range []string{"churn.deltas.applied", "churn.batches.applied", "churn.cells.reverified"} {
		if grew := after.Counters[name] - before[name]; grew <= 0 {
			t.Errorf("%s grew by %d over one Apply, want > 0 (the churn service kept a private registry)", name, grew)
		}
	}
	if after.Gauges["churn.version"] != int64(observed.Current().Version) {
		t.Errorf("churn.version gauge = %d, want the published version %d", after.Gauges["churn.version"], observed.Current().Version)
	}
}
