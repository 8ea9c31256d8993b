package dist_test

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/expr"
	"symnet/internal/obs"
	"symnet/internal/prog"
	"symnet/internal/sched"
	"symnet/internal/sefl"
)

// TestMain lets the test binary serve as its own fleet member: when a test
// re-executes it in listen mode (startWorkerProcess), maybeWorker hijacks the
// process before any test runs.
func TestMain(m *testing.M) {
	maybeWorker()
	os.Exit(m.Run())
}

// maybeWorker turns the current process into a fleet member when its
// environment says SYMNET_DIST_WORKER=listen=addr, never returning in that
// case: the process binds addr, prints the bound address on stdout ("addr"
// may end in :0; the parent reads the line to learn the port), and serves
// sessions until killed — what `symworker -listen addr` does. Without the
// marker it is a no-op.
func maybeWorker() {
	addr, ok := strings.CutPrefix(os.Getenv("SYMNET_DIST_WORKER"), "listen=")
	if !ok {
		return
	}
	ln, err := net.Listen("tcp", addr)
	if err == nil {
		fmt.Println(ln.Addr())
		err = dist.ServeListener(ln)
	}
	fmt.Fprintln(os.Stderr, "symnet-dist-worker:", err)
	os.Exit(1)
}

func init() {
	sefl.RegisterForBody("dist.test.panic", func(arg string) func(sefl.Meta) sefl.Instr {
		return func(k sefl.Meta) sefl.Instr {
			panic("dist test: poisoned model at " + k.Name)
		}
	})
}

// canonical renders batch results to comparable bytes, whichever runner
// produced them: a fleet's summary as received, an in-process result
// summarized here. Errors compare by message.
func canonical(t *testing.T, results []dist.JobResult) []byte {
	t.Helper()
	type row struct {
		Name    string
		Err     string
		Summary *dist.Summary
	}
	rows := make([]row, len(results))
	for i, r := range results {
		rows[i] = row{Name: r.Name, Summary: r.Summary}
		if r.Result != nil {
			rows[i].Summary = dist.Summarize(r.Result)
		}
		if r.Err != nil {
			rows[i].Err = r.Err.Error()
		}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	return b
}

// reference runs the batch through the in-process sched.RunBatch (the
// engine of record) and summarizes it.
func reference(t *testing.T, net *core.Network, jobs []dist.Job) []byte {
	t.Helper()
	out := make([]dist.JobResult, len(jobs))
	for i, jr := range sched.RunBatch(net, jobs, 1) {
		out[i] = dist.JobResult{Name: jr.Name, Result: jr.Result, Err: jr.Err}
	}
	return canonical(t, out)
}

// runVia runs one batch through the runner cfg describes — NewRunner, the
// constructor every caller uses, so a Config without Workers is the
// in-process runner and one with them a pool — and dismisses it.
func runVia(t *testing.T, net *core.Network, jobs []dist.Job, cfg dist.Config) []dist.JobResult {
	t.Helper()
	r, err := dist.NewRunner(cfg)
	if err != nil {
		t.Fatalf("NewRunner(%+v): %v", cfg, err)
	}
	defer r.Close()
	return r.RunBatch(net, jobs)
}

// runGrid is runVia at one (members, workersPerProc) point: members 0 is the
// in-process runner, anything more a fleet of that many loopback members.
func runGrid(t *testing.T, net *core.Network, jobs []dist.Job, members, workers int) []dist.JobResult {
	t.Helper()
	return runVia(t, net, jobs, dist.Config{Workers: residentFleet(t, members), WorkersPerProc: workers})
}

type batchCase struct {
	name string
	net  *core.Network
	jobs []dist.Job
}

// batchCases builds the three datasets of the determinism property: the
// department network (switch tables, ASA with For-loops, routers), the
// Stanford-like backbone, and the fork-heavy state-replication workload.
func batchCases(t *testing.T) []batchCase {
	t.Helper()
	var cases []batchCase

	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 12, Routes: 20, Seed: 5})
	srcs, _ := d.AllPairs()
	var deptJobs []dist.Job
	for _, s := range srcs {
		deptJobs = append(deptJobs, dist.Job{
			Name: s.String(), Inject: s, Packet: sefl.NewTCPPacket(),
			Opts: core.Options{MaxHops: 64},
		})
	}
	cases = append(cases, batchCase{"department", d.Net, deptJobs})

	bb := datasets.StanfordBackbone(5, 40)
	bsrcs, _ := bb.AllPairs()
	var bbJobs []dist.Job
	for _, s := range bsrcs {
		bbJobs = append(bbJobs, dist.Job{Name: s.String(), Inject: s, Packet: sefl.NewIPPacket()})
	}
	cases = append(cases, batchCase{"stanford", bb.Net, bbJobs})

	fnet, finj := datasets.ForkHeavy(6, 2, 4)
	var fJobs []dist.Job
	for i := 0; i < 5; i++ {
		fJobs = append(fJobs, dist.Job{
			Name: fmt.Sprintf("fork-%d", i), Inject: finj, Packet: sefl.NewTCPPacket(),
			Opts: core.Options{MaxHops: 1 << 12, Trace: i == 0},
		})
	}
	cases = append(cases, batchCase{"forkheavy", fnet, fJobs})
	return cases
}

// TestRunBatchByteIdentical is the tentpole property: a batch through
// NewRunner over any (members, workersPerProc) grid — including the
// in-process runner at members 0 — is byte-identical to sched.RunBatch, on
// all three datasets. It also pins the compiled-IR round trip, since workers
// execute the shipped encode→decode IR.
func TestRunBatchByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	for _, tc := range batchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want := reference(t, tc.net, tc.jobs)
			for _, members := range []int{0, 1, 2, 4} {
				for _, workers := range []int{1, 2} {
					got := canonical(t, runGrid(t, tc.net, tc.jobs, members, workers))
					if string(got) != string(want) {
						t.Errorf("members=%d workers=%d: distributed results differ from sched.RunBatch\n got: %.400s\nwant: %.400s",
							members, workers, got, want)
					}
				}
			}
			// A batch smaller than the fleet: two of three members get an
			// empty shard and only open and close the batch.
			one := tc.jobs[:1]
			if got := canonical(t, runGrid(t, tc.net, one, 3, 1)); string(got) != string(reference(t, tc.net, one)) {
				t.Errorf("members=3, one job: distributed result differs from sched.RunBatch")
			}
		})
	}
}

// canonicalNoCtx is canonical with the per-path constraint fingerprints
// cleared: the comparison surface between interval-table and Or-tree guard
// evaluation, whose solver hand-off legitimately differs in representation
// (and therefore in chained Add fingerprints) while every observable —
// statuses, messages, port histories, traces, statistics — must match.
func canonicalNoCtx(t *testing.T, results []dist.JobResult) []byte {
	t.Helper()
	stripped := make([]dist.JobResult, len(results))
	for i, r := range results {
		stripped[i] = dist.JobResult{Name: r.Name, Err: r.Err}
		sum := r.Summary
		if r.Result != nil {
			sum = dist.Summarize(r.Result)
		}
		if sum != nil {
			s := *sum
			s.Paths = append([]dist.PathSummary(nil), sum.Paths...)
			for j := range s.Paths {
				s.Paths[j].CtxFp = expr.Fp{}
			}
			stripped[i].Summary = &s
		}
	}
	return canonical(t, stripped)
}

// TestGuardModesDistByteIdentical is the distributed face of the
// interval-table acceptance property: the default engine, in-process and on
// a two-member fleet, matches the in-process Or-tree reference (the same
// network through withOrTreeGuards) on every observable, and the fleet
// matches the in-process default engine including its constraint
// fingerprints.
func TestGuardModesDistByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	ors := batchCases(t)
	for i, tc := range batchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			orTree := runGrid(t, withOrTreeGuards(ors[i].net), tc.jobs, 0, 2)
			wantObs := canonicalNoCtx(t, renameOrTreeMsgs(orTree, orTreeMsgs(tc.net)))
			local := runGrid(t, tc.net, tc.jobs, 0, 2)
			if got := canonicalNoCtx(t, local); string(got) != string(wantObs) {
				t.Errorf("interval-table observables differ from the Or-tree reference")
			}
			if got := canonical(t, runGrid(t, tc.net, tc.jobs, 2, 2)); string(got) != string(canonical(t, local)) {
				t.Errorf("members=2 differs from in-process")
			}
		})
	}
}

// withOrTreeGuards rewrites, in place, every table guard in the code of
// net's ports as the Or-tree it stands for (sefl.Table.Or), and returns
// net: the reference that interval-table lowering is compared against. A
// hand-written Or compiles as a tree, so the rewritten network runs no span
// table. A table renders as its span table and its Or-tree as the tree, in
// trace lines and failure messages, so the suites rename the reference's
// renderings (orTreeMsgs, renameOrTreeMsgs) before comparing.
func withOrTreeGuards(net *core.Network) *core.Network {
	for _, e := range net.Elements() {
		for _, out := range []bool{false, true} {
			n := e.NumIn
			if out {
				n = e.NumOut
			}
			for p := core.WildcardPort; p < n; p++ {
				code, ok := e.Code(p, out)
				if !ok {
					continue
				}
				if out {
					e.SetOutCode(p, orTreeInstr(code))
				} else {
					e.SetInCode(p, orTreeInstr(code))
				}
			}
		}
	}
	return net
}

// orTreeInstr is ins with every table guard written as its Or-tree.
func orTreeInstr(ins sefl.Instr) sefl.Instr {
	switch v := ins.(type) {
	case sefl.Constrain:
		return sefl.Constrain{C: orTreeCond(v.C)}
	case sefl.If:
		return sefl.If{C: orTreeCond(v.C), Then: orTreeInstr(v.Then), Else: orTreeInstr(v.Else)}
	case sefl.Block:
		is := make([]sefl.Instr, len(v.Is))
		for i, sub := range v.Is {
			is[i] = orTreeInstr(sub)
		}
		return sefl.Block{Is: is}
	}
	return ins
}

func orTreeCond(c sefl.Cond) sefl.Cond {
	switch v := c.(type) {
	case sefl.Table:
		return v.Or()
	case sefl.CAnd:
		cs := make([]sefl.Cond, len(v.Cs))
		for i, sub := range v.Cs {
			cs[i] = orTreeCond(sub)
		}
		return sefl.CAnd{Cs: cs}
	case sefl.COr:
		cs := make([]sefl.Cond, len(v.Cs))
		for i, sub := range v.Cs {
			cs[i] = orTreeCond(sub)
		}
		return sefl.COr{Cs: cs}
	case sefl.CNot:
		return sefl.CNot{C: orTreeCond(v.C)}
	}
	return c
}

// orTreeMsgs maps each rendering that the Or-tree withOrTreeGuards writes
// for net's tables moves to the rendering of the tables themselves: the
// trace line of every instruction with a table in it, and the failure
// message (prog.UnsatMsg) of every such Constrain. Read it before the
// rewrite. It is the rule of internal/prog's orTreeMsgs, so both reference
// suites rename the same lines.
func orTreeMsgs(net *core.Network) map[string]string {
	msgs := map[string]string{}
	var walk func(elem string, ins sefl.Instr)
	walk = func(elem string, ins sefl.Instr) {
		switch v := ins.(type) {
		case sefl.Block:
			for _, sub := range v.Is {
				walk(elem, sub)
			}
			return
		case sefl.If:
			walk(elem, v.Then)
			walk(elem, v.Else)
		}
		tree := orTreeInstr(ins)
		if line, treeLine := fmt.Sprintf("%s: %s", elem, ins), fmt.Sprintf("%s: %s", elem, tree); line != treeLine {
			msgs[treeLine] = line
		}
		if c, ok := ins.(sefl.Constrain); ok {
			if msg, treeMsg := prog.UnsatMsg(c.C), prog.UnsatMsg(tree.(sefl.Constrain).C); msg != treeMsg {
				msgs[treeMsg] = msg
			}
		}
	}
	for _, e := range net.Elements() {
		for _, out := range []bool{false, true} {
			n := e.NumIn
			if out {
				n = e.NumOut
			}
			for p := core.WildcardPort; p < n; p++ {
				if code, ok := e.Code(p, out); ok {
					walk(e.Name, code)
				}
			}
		}
	}
	return msgs
}

// renameOrTreeMsgs rewrites in place each failure message and trace line of
// the in-process results that msgs names, and returns results: the Or-tree
// reference's renderings renamed to its tables'.
func renameOrTreeMsgs(results []dist.JobResult, msgs map[string]string) []dist.JobResult {
	for _, r := range results {
		if r.Result == nil {
			continue
		}
		for _, p := range r.Result.Paths {
			if m, ok := msgs[p.FailMsg]; ok {
				p.FailMsg = m
			}
			for i, line := range p.Trace {
				if m, ok := msgs[line]; ok {
					p.Trace[i] = m
				}
			}
		}
	}
	return results
}

// withOpts returns a copy of jobs with set applied to each job's Options.
func withOpts(jobs []dist.Job, set func(*core.Options)) []dist.Job {
	out := append([]dist.Job(nil), jobs...)
	for i := range out {
		set(&out[i].Opts)
	}
	return out
}

// poisonedCase builds a batch whose middle job panics the exploration (a
// registered For body, so it also crosses the wire).
func poisonedCase() (*core.Network, []dist.Job) {
	net := core.NewNetwork()
	e := net.AddElement("dut", "test", 1, 1)
	e.SetInCode(0, sefl.Seq(
		sefl.NewFor("^PANIC", "dist.test.panic", ""),
		sefl.Forward{Port: 0},
	))
	sink := net.AddElement("sink", "sink", 1, 0)
	sink.SetInCode(0, sefl.NoOp{})
	net.MustLink("dut", 0, "sink", 0)

	inject := core.PortRef{Elem: "dut", Port: 0}
	poisoned := sefl.Seq(
		sefl.NewTCPPacket(),
		sefl.Allocate{LV: sefl.Meta{Name: "PANIC1"}, Size: 8},
	)
	jobs := []dist.Job{
		{Name: "ok-0", Inject: inject, Packet: sefl.NewTCPPacket()},
		{Name: "boom", Inject: inject, Packet: poisoned},
		{Name: "ok-1", Inject: inject, Packet: sefl.NewTCPPacket()},
	}
	return net, jobs
}

// TestDistributedPanicIsolation pins the distributed face of the
// panic-isolation contract: a job that panics inside a worker process is
// reported as that job's error, siblings on the same and other workers
// complete, and the distributed error matches the in-process one.
func TestDistributedPanicIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	net, jobs := poisonedCase()
	want := reference(t, net, jobs)
	for _, members := range []int{1, 2} {
		out := runGrid(t, net, jobs, members, 2)
		if string(canonical(t, out)) != string(want) {
			t.Errorf("members=%d: poisoned batch differs from in-process reference", members)
		}
		if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "panicked") {
			t.Errorf("members=%d: poisoned job error = %v", members, out[1].Err)
		}
		for _, i := range []int{0, 2} {
			if out[i].Err != nil || out[i].Summary == nil || out[i].Summary.Stats.Delivered != 1 {
				t.Errorf("members=%d: sibling %q poisoned: %+v", members, out[i].Name, out[i])
			}
		}
	}
}

// TestWorkerCrashDoesNotPoisonOtherShards runs a poison job — one that kills
// every worker that executes it (the fault-injection env hook without the
// once-marker) — through a fleet of four member processes as production
// drives it, the fixed re-dispatch budget included. The job must fail alone,
// after exactly jobRetries re-dispatches, with the lost connection in its
// error; every sibling is delivered byte-identical to the in-process
// reference, by the members the poison job reached only after they had
// finished their own shard (a member's queue is FIFO) or did not reach at
// all.
func TestWorkerCrashDoesNotPoisonOtherShards(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 8, Routes: 12, Seed: 5})
	srcs, _ := d.AllPairs()
	var jobs []dist.Job
	for _, s := range srcs {
		jobs = append(jobs, dist.Job{Name: s.String(), Inject: s, Packet: sefl.NewTCPPacket(), Opts: core.Options{MaxHops: 64}})
	}
	// Four to seven jobs over four members is a one-job first shard, and a
	// re-dispatched job queues last: no sibling is ever behind the poison job
	// when it kills a member, so its re-dispatches are the only ones.
	if len(jobs) < 4 || len(jobs) >= 8 {
		t.Fatalf("need 4..7 jobs, have %d", len(jobs))
	}
	poison := "SYMNET_DIST_TEST_EXIT_ON=" + jobs[0].Name
	var fleet []string
	for range 4 {
		fleet = append(fleet, startWorkerProcess(t, poison))
	}
	reg := obs.NewRegistry()
	out := runVia(t, d.Net, jobs, dist.Config{Workers: fleet, WorkersPerProc: 1, Obs: obs.New(reg, nil)})
	if err := out[0].Err; err == nil || out[0].Summary != nil {
		t.Errorf("poison job %s: %+v, want a lost-job error", out[0].Name, out[0])
	} else if msg := err.Error(); !strings.Contains(msg, "worker ") || !strings.Contains(msg, "connection lost") {
		t.Errorf("poison job %s: err = %v, want \"worker N connection lost…\"", out[0].Name, err)
	}
	for i, r := range out[1:] {
		if r.Err != nil || r.Summary == nil {
			t.Errorf("sibling %d (%s): %+v", i+1, r.Name, r)
		}
	}
	if got, want := canonical(t, out[1:]), reference(t, d.Net, jobs[1:]); string(got) != string(want) {
		t.Errorf("siblings of the poison job differ from the in-process reference")
	}
	if n := reg.Snapshot().Counters["dist.jobs.redispatched"]; n != 2 {
		t.Errorf("dist.jobs.redispatched = %d, want the budget of 2 and nothing else re-dispatched", n)
	}
}

// satHeavyJobs builds identical queries over the Sat-check-heavy chain — the
// one workload whose cross-field disjunctions actually reach the solver's
// Sat path and therefore the SatCache (single-symbol guards compress to
// interval sets and never pend).
func satHeavyJobs(rules, queries int) (*core.Network, []dist.Job) {
	net, inject := datasets.SatHeavy(rules)
	jobs := make([]dist.Job, queries)
	for i := range jobs {
		jobs[i] = dist.Job{Name: fmt.Sprintf("q%d", i), Inject: inject, Packet: sefl.NewTCPPacket()}
	}
	return net, jobs
}

// TestDistMetricsAbsorbedAndInert pins the two distributed-observability
// contracts at once: attaching a registry changes no result bytes, and the
// coordinator's registry ends the run holding the workers' folded telemetry
// (SatCache traffic shipped via the metrics frame, worker lifecycle and
// frame-size counters recorded coordinator-side).
func TestDistMetricsAbsorbedAndInert(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	net, jobs := satHeavyJobs(8, 6)
	cfg := dist.Config{Workers: residentFleet(t, 2), WorkersPerProc: 2}
	want := canonical(t, runVia(t, net, jobs, cfg))

	reg := obs.NewRegistry()
	cfg.Obs = obs.New(reg, nil)
	got := canonical(t, runVia(t, net, jobs, cfg))
	if string(got) != string(want) {
		t.Errorf("metrics-on results differ from metrics-off:\n got: %.400s\nwant: %.400s", got, want)
	}

	// Every Sat() call is one memo lookup, so the fleet's absorbed
	// hits+misses must equal the in-process SatChecks total for the same jobs
	// (no member dies, so no job runs twice) — however the hit/miss split
	// falls. A memo registered twice on a worker's registry would read double.
	var satChecks int64
	for _, jr := range sched.RunBatch(net, jobs, 1) {
		satChecks += int64(jr.Result.Stats.Solver.SatChecks)
	}
	snap := reg.Snapshot()
	if traffic := snap.Counters["solver.satcache.hits"] + snap.Counters["solver.satcache.misses"]; traffic != satChecks || traffic == 0 {
		t.Errorf("absorbed SatCache traffic = %d, want the in-process SatChecks total %d; counters: %v", traffic, satChecks, snap.Counters)
	}
	if spawned := snap.Counters["dist.worker.spawned"]; spawned != 2 {
		t.Errorf("dist.worker.spawned = %d, want 2", spawned)
	}
	if exited := snap.Counters["dist.worker.exited"]; exited != 2 {
		t.Errorf("dist.worker.exited = %d, want 2", exited)
	}
	if snap.Counters["dist.frame.bytes_in"] == 0 || snap.Counters["dist.frame.bytes_out"] == 0 {
		t.Errorf("frame byte counters empty: in=%d out=%d",
			snap.Counters["dist.frame.bytes_in"], snap.Counters["dist.frame.bytes_out"])
	}
	for shard := 0; shard < 2; shard++ {
		key := fmt.Sprintf("dist.shard%d.wall_ns", shard)
		if snap.Gauges[key] == 0 {
			t.Errorf("%s not recorded; gauges: %v", key, snap.Gauges)
		}
	}
}

// TestSummariesDistByteIdentical is the distributed face of the compiled
// engine's acceptance property: the default engine, in-process and on a
// two-member fleet, produces on every dataset batch the same observables as
// the AST interpreter (Options.ASTInterp) in-process, and the compiled
// engine on the Or-tree network (withOrTreeGuards) the same bytes,
// constraint fingerprints included. The AST interpreter runs in-process
// only (a Pool refuses it).
func TestSummariesDistByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	ors := batchCases(t)
	for i, tc := range batchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ast := runGrid(t, tc.net, withOpts(tc.jobs, func(o *core.Options) { o.ASTInterp = true }), 0, 2)
			orTree := renameOrTreeMsgs(runGrid(t, withOrTreeGuards(ors[i].net), tc.jobs, 0, 2), orTreeMsgs(tc.net))
			if got, want := canonical(t, orTree), canonical(t, ast); string(got) != string(want) {
				t.Errorf("Or-tree compiled results differ from the AST reference in-process")
			}
			wantObs := canonicalNoCtx(t, ast)
			for _, members := range []int{0, 2} {
				if got := canonicalNoCtx(t, runGrid(t, tc.net, tc.jobs, members, 2)); string(got) != string(wantObs) {
					t.Errorf("members=%d: observables differ from the AST reference in-process", members)
				}
			}
		})
	}
}

// TestSummariesDistWorkersInstallNotRebuild pins the division of labor
// across the wire: members compile the source they are shipped as they
// install it — the full setup, and the delta after a Refresh — and run the
// programs, so the absorbed worker telemetry shows every port visit served
// from the program cache (core.progcache.hits) and none compiling a port
// program during a run (core.progcache.misses) on every batch. The delta changes the gate's
// code, so a member still running the old program would change the
// results.
func TestSummariesDistWorkersInstallNotRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	net, inject := datasets.SatHeavy(8)
	g := net.AddElement("gate", "gate", 1, 1)
	g.SetInCode(0, sefl.Forward{Port: 0})
	net.MustLink("gate", 0, inject.Elem, inject.Port)
	gated := core.PortRef{Elem: "gate", Port: 0}

	jobs := make([]dist.Job, 4)
	for i := range jobs {
		jobs[i] = dist.Job{Name: fmt.Sprintf("q%d", i), Inject: gated, Packet: sefl.NewTCPPacket()}
	}

	const members = 2
	reg := obs.NewRegistry()
	pool, err := dist.NewPool(dist.Config{Workers: residentFleet(t, members), WorkersPerProc: 2, Obs: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var prev obs.Snapshot
	batch := func(mode string) {
		t.Helper()
		want := reference(t, net, jobs)
		if got := canonical(t, pool.RunBatch(net, jobs)); string(got) != string(want) {
			t.Errorf("%s batch: results differ from in-process reference:\n got: %.400s\nwant: %.400s", mode, got, want)
		}
		snap := reg.Snapshot()
		grew := func(name string) int64 { return snap.Counters[name] - prev.Counters[name] }
		if grew("dist.setup."+mode) != members {
			t.Errorf("%s batch: dist.setup.%s grew by %d, want both workers", mode, mode, grew("dist.setup."+mode))
		}
		if grew("core.progcache.hits") == 0 {
			t.Errorf("%s batch: no program-cache hits absorbed from workers; counters: %v", mode, snap.Counters)
		}
		if n := grew("core.progcache.misses"); n != 0 {
			t.Errorf("%s batch: workers compiled %d port programs while running, want the installed ones run", mode, n)
		}
		prev = *snap
	}
	batch("full")
	batch("reuse")
	// The gate now admits well-known ports only, which every path's
	// constraint fingerprint shows; the delta ships its source alone.
	before := reference(t, net, jobs)
	g.SetInCode(0, sefl.Seq(sefl.Constrain{C: sefl.Lt(sefl.Ref{LV: sefl.TcpDst}, sefl.C(1024))}, sefl.Forward{Port: 0}))
	if string(reference(t, net, jobs)) == string(before) {
		t.Fatal("test premise: the gate's new code does not change the results")
	}
	pool.Refresh(gated)
	batch("delta")
}

// TestPoolRefusesReferenceModes pins where the reference semantics run: a
// Pool refuses a batch in which any job sets Options.ASTInterp, failing
// every job of it with the same pointed error, while the in-process runner
// runs it.
func TestPoolRefusesReferenceModes(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	net, jobs := satHeavyJobs(4, 3)
	batch := append([]dist.Job(nil), jobs...)
	batch[1].Opts.ASTInterp = true
	want := fmt.Sprintf("dist: job %q: Options.ASTInterp is a reference mode; run it in-process", batch[1].Name)
	for i, jr := range runVia(t, net, batch, dist.Config{Workers: residentFleet(t, 1), WorkersPerProc: 1}) {
		if jr.Err == nil || jr.Err.Error() != want || jr.Summary != nil {
			t.Errorf("pool job %d = %+v, want error %q", i, jr, want)
		}
	}
	for i, jr := range runVia(t, net, batch, dist.Config{WorkersPerProc: 1}) {
		if jr.Err != nil || jr.Result == nil || jr.Result.Stats.Delivered != 1 {
			t.Errorf("in-process job %d = %+v, want one delivered path", i, jr)
		}
	}
}

// TestRunBatchUnserializableNetwork pins the failure mode for networks that
// cannot cross the wire (a bare-closure For): every job reports the encode
// error instead of hanging or crashing.
func TestRunBatchUnserializableNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	net := core.NewNetwork()
	e := net.AddElement("dut", "test", 1, 0)
	e.SetInCode(0, sefl.Seq(
		sefl.For{Pattern: "^x", Body: func(sefl.Meta) sefl.Instr { return sefl.NoOp{} }},
	))
	jobs := []dist.Job{{Name: "j", Inject: core.PortRef{Elem: "dut", Port: 0}, Packet: sefl.NewTCPPacket()}}
	out := runGrid(t, net, jobs, 2, 1)
	if out[0].Err == nil || !strings.Contains(out[0].Err.Error(), "NewFor") {
		t.Fatalf("want serialization error, got %+v", out[0])
	}
}

// TestNewRunnerPicksByFleet pins the one pool-or-in-process decision: a
// Config that names no fleet yields the in-process runner, dialling nothing,
// and NewPool refuses it outright.
func TestNewRunnerPicksByFleet(t *testing.T) {
	r, err := dist.NewRunner(dist.Config{WorkersPerProc: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != dist.InProcess(3, nil) {
		t.Fatalf("NewRunner without a fleet = %#v, want dist.InProcess(3, nil)", r)
	}
	if _, err := dist.NewPool(dist.Config{WorkersPerProc: 3}); err == nil {
		t.Fatal("NewPool without a fleet succeeded")
	}
}
