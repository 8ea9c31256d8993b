package dist_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/expr"
	"symnet/internal/obs"
	"symnet/internal/sched"
	"symnet/internal/sefl"
)

// TestMain lets the test binary serve as its own fleet member: when a test
// re-executes it in listen mode (startWorkerProcess), MaybeWorker hijacks the
// process before any test runs.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
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
// interval-table acceptance property: in-process and on a two-member fleet,
// interval-table execution matches the Or-tree reference on every
// observable, and each mode is fleet-size deterministic including its
// constraint fingerprints.
func TestGuardModesDistByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	for _, tc := range batchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var wantObs []byte
			for _, orTree := range []bool{true, false} {
				jobs := make([]dist.Job, len(tc.jobs))
				for i, j := range tc.jobs {
					jobs[i] = j
					jobs[i].Opts.OrTreeGuards = orTree
				}
				var wantFull []byte
				for _, members := range []int{0, 2} {
					out := runGrid(t, tc.net, jobs, members, 2)
					if members == 0 {
						wantFull = canonical(t, out)
						if orTree {
							wantObs = canonicalNoCtx(t, out)
						} else if got := canonicalNoCtx(t, out); string(got) != string(wantObs) {
							t.Errorf("interval-table observables differ from Or-tree reference")
						}
					} else if got := canonical(t, out); string(got) != string(wantFull) {
						t.Errorf("ortree=%v: members=%d differs from in-process", orTree, members)
					}
				}
			}
		})
	}
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

// TestSummariesDistByteIdentical is the distributed face of the summary
// acceptance property: the default engine or the IR reference
// (Options.IRExec), in-process and on a two-member fleet, every dataset batch
// produces the same bytes as the IR reference in-process — full canonical
// encoding, constraint fingerprints included, since summaries replay the
// exact IR solver call sequence. It also pins the summary wire crossing,
// since workers execute the shipped summaries.
func TestSummariesDistByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	withIRExec := func(jobs []dist.Job, irExec bool) []dist.Job {
		out := append([]dist.Job(nil), jobs...)
		for i := range out {
			out[i].Opts.IRExec = irExec
		}
		return out
	}
	for _, tc := range batchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want := reference(t, tc.net, withIRExec(tc.jobs, true))
			for _, irExec := range []bool{true, false} {
				for _, members := range []int{0, 2} {
					got := canonical(t, runGrid(t, tc.net, withIRExec(tc.jobs, irExec), members, 2))
					if string(got) != string(want) {
						t.Errorf("IRExec=%v members=%d: results differ from the IR reference in-process",
							irExec, members)
					}
				}
			}
		})
	}
}

// TestSummariesDistWorkersInstallNotRebuild pins the division of labor
// across the wire: the coordinator summarizes once and ships verdicts with
// every program it ships — the full setup, and the delta after a Refresh —
// and workers install them. No job asks for anything (zero Options), yet the
// absorbed worker telemetry shows summary applications (hits) and IR
// fallbacks (the gate element) on full, reuse and delta batches alike,
// and zero worker-side builds on any of them.
func TestSummariesDistWorkersInstallNotRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	net, inject := datasets.SatHeavy(8)
	g := net.AddElement("sumgate", "gate", 1, 1)
	// Two fresh-symbol mints downstream of a branch point (one that never
	// forks): unsummarizable by construction, so every batch exercises the
	// IR fallback.
	gate := func(port int) sefl.Instr {
		m := sefl.Meta{Name: "sumgate", Local: true}
		return sefl.Seq(
			sefl.If{C: sefl.MetaPresent{M: m}, Then: sefl.NoOp{}, Else: sefl.NoOp{}},
			sefl.Allocate{LV: m, Size: 8},
			sefl.Assign{LV: m, E: sefl.Symbolic{W: 8, Name: "gate-a"}},
			sefl.Assign{LV: m, E: sefl.Symbolic{W: 8, Name: "gate-b"}},
			sefl.Deallocate{LV: m, Size: 8},
			sefl.Forward{Port: port},
		)
	}
	g.SetInCode(0, gate(0))
	net.MustLink("sumgate", 0, inject.Elem, inject.Port)
	gated := core.PortRef{Elem: "sumgate", Port: 0}

	jobs := make([]dist.Job, 4)
	for i := range jobs {
		jobs[i] = dist.Job{Name: fmt.Sprintf("q%d", i), Inject: gated, Packet: sefl.NewTCPPacket()}
	}

	reg := obs.NewRegistry()
	pool, err := dist.NewPool(dist.Config{Workers: residentFleet(t, 2), WorkersPerProc: 2, Obs: obs.New(reg, nil)})
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
		if grew("dist.setup."+mode) != 2 {
			t.Errorf("%s batch: dist.setup.%s grew by %d, want both workers", mode, mode, grew("dist.setup."+mode))
		}
		if grew("summary.hits") == 0 {
			t.Errorf("%s batch: no summary applications absorbed from workers; counters: %v", mode, snap.Counters)
		}
		if grew("summary.fallbacks") == 0 {
			t.Errorf("%s batch: no IR fallbacks absorbed despite the gate element; counters: %v", mode, snap.Counters)
		}
		if built := grew("summary.built") + grew("summary.unsummarizable"); built != 0 {
			t.Errorf("%s batch: workers re-summarized %d programs; the shipped verdicts should cover all", mode, built)
		}
		prev = *snap
	}
	batch("full")
	batch("reuse")
	// Rebind both verdict kinds — the gate (unsummarizable) and its
	// successor's input (summarized) — so the delta has to carry both.
	g.SetInCode(0, gate(0))
	succ, _ := net.Element(inject.Elem)
	succ.SetInCode(inject.Port, succ.InCode[inject.Port])
	pool.Refresh(gated, inject)
	batch("delta")
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
