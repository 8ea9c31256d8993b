package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// Every measurement is scaled by probeQuiet over the mean of the probes
// beside it; the result is the median of the scaled values.
func TestQuietTime(t *testing.T) {
	q := probeQuiet
	xs := []float64{10, 30, 40}
	before := []time.Duration{q, 2 * q, 3 * q}
	after := []time.Duration{q, 4 * q, 5 * q}
	// scaled: 10/1, 30/3, 40/4
	if got := quietTime(xs, before, after); math.Abs(got-10) > 1e-9 {
		t.Errorf("quietTime = %v, want 10", got)
	}
	// A host twice as slow throughout reads the same.
	for i := range xs {
		xs[i] *= 2
		before[i] *= 2
		after[i] *= 2
	}
	if got := quietTime(xs, before, after); math.Abs(got-10) > 1e-9 {
		t.Errorf("quietTime on a slow host = %v, want 10", got)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	if got := quantile(xs, 0.25); got != 10 {
		t.Errorf("quantile 0.25 = %v, want 10 (nearest rank)", got)
	}
	if got := quantile(xs, 0.9); got != 40 {
		t.Errorf("quantile 0.9 = %v, want 40", got)
	}
	if got := median(xs); got != 25 {
		t.Errorf("median = %v, want 25", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// The expected values are Python's: statistics.quantiles(v, n=4), then
// (q[2]-q[0])/statistics.median(v).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 4, 1.5, 9, 2.6, 5.3, 5.8, 9.7, 9.3}, 1.451612903225806},
		{[]float64{3, 1, 4, 1.5, 9}, 1.75},
	} {
		if got := quartileSpread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Parent: 0, Op: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Op: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Op: 1, Start: 30, End: 60}, // overlaps a by 10
		{Name: "leaf", ID: 4, Parent: 2, Op: 1, Start: 15, End: 20},
		{Name: "probe", ID: 5, Parent: 0, Op: 1, Start: 100, End: 130},
	}
	want := []int64{50, 25, 30, 5, 30} // op: 100 - [10,60]; a: 30 - 5
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if got := stageSumRatio(spans); got != 0.5 {
		t.Errorf("stageSumRatio = %v, want 0.5 (probe roots do not count)", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, tr.nextOp())
	tr.end(id)
	if err := tr.stage("y", id, 0, func() error { return nil }); err != nil || id != 0 {
		t.Errorf("nil tracer: id %d, err %v", id, err)
	}
}

// Same seed, same bytes; another seed, other bytes: for the FIB text, the
// delta script and the job list.
func TestInputsDeterministic(t *testing.T) {
	for _, name := range []string{"cold_router", "allpairs_dept", "fleet_allpairs", "serve_churn"} {
		gen := func(seed int64) []byte {
			w, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.generate(seed); err != nil {
				t.Fatal(err)
			}
			return append([]byte(nil), w.inputBytes()...)
		}
		a, again, b := gen(5), gen(5), gen(6)
		if len(a) == 0 || !bytes.Equal(a, again) {
			t.Errorf("%s: seed 5 twice gave different inputs", name)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", name)
		}
	}
}

// The delta script keeps its shape whatever the seed: kinds and ports fixed,
// every rule touched once, every delta applicable to the original tables.
func TestChurnScriptShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		w := &serveChurn{}
		if err := w.generate(seed); err != nil {
			t.Fatal(err)
		}
		if len(w.script) != churnOpsPerPass || len(w.exitProbe) != churnExitProbes {
			t.Fatalf("seed %d: %d script deltas, %d probes", seed, len(w.script), len(w.exitProbe))
		}
		kinds, rules := map[string]int{}, map[string]bool{}
		for _, d := range w.script {
			if err := d.Validate(); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			kinds[d.Elem[:2]+" "+d.Op]++
			rules[d.MAC+d.Prefix] = true
			if d.Prefix != "" && d.Port != 2 {
				t.Errorf("seed %d: route delta %s not onto m1's exit leg", seed, d)
			}
			if d.MAC != "" && d.Op != "delete" && d.Port == 0 {
				t.Errorf("seed %d: MAC delta %s onto the uplink", seed, d)
			}
		}
		if len(rules) != churnOpsPerPass {
			t.Errorf("seed %d: only %d distinct rules", seed, len(rules))
		}
		// The costly case is the one to time: onto the internet leg a route
		// on exit costs a tenth of it.
		if p := w.exitProbe[0]; p.Elem != "exit" || p.Op != "insert" || p.Port != 0 {
			t.Errorf("seed %d: exit probe %s is not an insert pointing back inside", seed, p)
		}
		want := map[string]int{"as insert": 8, "as delete": 4, "as modify": 4, "m1 insert": 1, "m1 modify": 1}
		for k, n := range want {
			if kinds[k] != n {
				t.Errorf("seed %d: %d deltas of kind %q, want %d", seed, kinds[k], k, n)
			}
		}
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != bounds[d.name] {
			t.Errorf("end-to-end metric %d is %+v, harness has %+v bound %v", i, m, d, bounds[d.name])
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract's limits", m)
		}
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d is %+v, harness has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer metric %+v breaks the contract's limits", m)
		}
		seen[m.Name] = true
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// TestSmoke runs every workload for one set-up and one pass, which is what
// a run shorter than either comes to, plain and traced, and checks that each
// run is correct and reports exactly its metric list. The traced
// run's spans must hang together: the spans of one operation share its id
// and every span that is not a root has a live parent of the same operation.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 7, seconds: 0.001}
			w, err := prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, inf, err := runPlain(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, out, inf, endToEnd)

			cfg.trace, cfg.traceOut = true, filepath.Join(t.TempDir(), "trace.jsonl")
			out, inf, err = runTraced(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, out, inf, perLayer)
			if r := out.Metrics["harness.stage_sum_ratio"].Value; r < 0.95 || r > 1.05 {
				t.Errorf("harness.stage_sum_ratio = %v, want 0.95 to 1.05", r)
			}
			checkTrace(t, cfg.traceOut)
		})
	}
}

func checkOutcome(t *testing.T, out outcome, inf info, defs []metricDef) {
	t.Helper()
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("correct %v, %d of %d failed: %s", out.Correct, out.Failed, out.Attempted, inf.FirstError)
	}
	if inf.GOMAXPROCS != 1 {
		t.Errorf("ran at GOMAXPROCS %d", inf.GOMAXPROCS)
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: reported %v (%+v), want unit %s", d.name, ok, m, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
		if _, gated := bounds[d.name]; gated && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, m.Value)
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	ops := 0
	for i, s := range spans {
		if s.ID != i+1 || s.End < s.Start {
			t.Fatalf("span %+v: id out of order or never ended", s)
		}
		if s.Name == "op" {
			ops++
		}
		if s.Parent == 0 {
			if s.Name != "op" && s.Name != "probe" && s.Name != "setup" && s.Name != "finish" {
				t.Errorf("root span %+v is not an op, a probe, a set-up or a finish", s)
			}
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("span %+v names a parent that started after it", s)
		}
		p := spans[s.Parent-1]
		if p.Op != s.Op || p.Start > s.Start || p.End < s.End {
			t.Errorf("span %+v is not inside its parent %+v", s, p)
		}
	}
	if ops == 0 {
		t.Error("trace holds no operation")
	}
}
