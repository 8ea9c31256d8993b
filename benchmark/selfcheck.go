package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// selfCheck is the noise study. It runs every workload k times in each of
// two sets, A and B, of the same code and the same seeds, alternating the
// sets so that slow drift of the host falls on both, and prints per workload
// and metric the two medians, how much worse B's is than A's, and each set's
// quartile spread as a share of its median. It fails when a gap or a spread
// is beyond the metric's bound: two runs of the same code must agree before
// the benchmark can say anything about two versions of it.
func selfCheck(cfg config, k int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	names := workloadNames
	// values[set][workload][metric] are the k runs' readings.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range names {
			values[set][w] = map[string][]float64{}
		}
	}
	start := time.Now()
	for i := 0; i < k; i++ {
		for set := range values {
			for _, w := range names {
				out, err := runChild(exe, cfg, w, cfg.seed+int64(i), stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: selfcheck: %s, seed %d: %v\n", w, cfg.seed+int64(i), err)
					return 1
				}
				if !out.Correct {
					fmt.Fprintf(stderr, "benchmark: selfcheck: %s, seed %d: %d of %d operations failed\n", w, cfg.seed+int64(i), out.Failed, out.Attempted)
					return 1
				}
				for name, m := range out.Metrics {
					values[set][w][name] = append(values[set][w][name], m.Value)
				}
			}
		}
	}

	fmt.Fprintf(stdout, "# Noise study\n\n")
	fmt.Fprintf(stdout, "`go run ./benchmark -selfcheck -k %d -seed %d -seconds %v`, %s, %s/%s, %d CPUs, %s in all.\n\n",
		k, cfg.seed, cfg.seconds, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), time.Since(start).Round(time.Second))
	fmt.Fprintf(stdout, "Sets A and B are the same code on seeds %d to %d, run alternately. `gap` is how much worse\n", cfg.seed, cfg.seed+int64(k)-1)
	fmt.Fprintf(stdout, "B's median is than A's; `spread` is the distance between a set's quartiles as a share of its\n")
	fmt.Fprintf(stdout, "median (`statistics.quantiles(v, n=4)`); both are held against the metric's bound, except\n")
	fmt.Fprintf(stdout, "the spread of `setup_s`, which the driver does not gate.\n\n")
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | gap | spread A | spread B | bound | |\n")
	fmt.Fprintf(stdout, "|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	bad := 0
	for _, w := range names {
		for _, d := range endToEnd {
			a, b := values[0][w][d.name], values[1][w][d.name]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if d.better == "higher" {
				gap = -gap
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			bound := bounds[d.name]
			verdict := "ok"
			if gap > bound || (d.name != "setup_s" && (sa > bound || sb > bound)) {
				verdict = "**over**"
				bad++
			}
			fmt.Fprintf(stdout, "| %s | %s | %s %s | %s | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w, d.name, sig(ma), d.unit, sig(mb), 100*gap, 100*sa, 100*sb, 100*bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\n%d pairing(s) over their bound.\n", bad)
	} else {
		fmt.Fprintf(stdout, "\nEvery gap and every gated spread is inside its bound.\n")
	}
	fmt.Fprintf(stdout, "\n## Every reading\n\nIn run order, seeds %d to %d.\n\n", cfg.seed, cfg.seed+int64(k)-1)
	fmt.Fprintf(stdout, "| workload | metric | set | readings |\n|---|---|---|---|\n")
	for _, w := range names {
		for _, d := range endToEnd {
			for set, label := range []string{"A", "B"} {
				var cells []string
				for _, v := range values[set][w][d.name] {
					cells = append(cells, sig(v))
				}
				fmt.Fprintf(stdout, "| %s | %s | %s | %s |\n", w, d.name, label, strings.Join(cells, " "))
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runChild runs one workload in a process of its own, as the driver does,
// and parses the result line.
func runChild(exe string, cfg config, workload string, seed int64, stderr io.Writer) (outcome, error) {
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	var out outcome
	if err := cmd.Run(); err != nil {
		return out, err
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &out)
	return out, err
}

// quartileSpread is (Q3-Q1)/median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (its default, exclusive method), which
// is what the driver computes.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// sig prints five significant digits.
func sig(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }
