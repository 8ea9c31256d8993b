// Command benchmark is the repository's one benchmark: five named workloads,
// five end-to-end metrics from an untraced run and the per-layer metrics
// from a traced one, every output checked. See README.md beside this file.
//
//	go run ./benchmark -workload allpairs_dept -seed 3
//	go run ./benchmark -workload serve_churn -seed 3 -trace 1 -trace-out churn.jsonl
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: cold_router, allpairs_dept, forkheavy, fleet_allpairs or serve_churn")
	fs.Int64Var(&cfg.seed, "seed", 11, "seed of the input generators")
	fs.Float64Var(&cfg.seconds, "seconds", 16, "length of the timed section; set-up is repeated for an eighth of it")
	trace := fs.Int("trace", 0, "1: the traced run, reporting the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the spans to this file as JSON lines")
	selfcheck := fs.Bool("selfcheck", false, "run the noise study: every workload -k times, twice over")
	k := fs.Int("k", 5, "runs per workload and set in -selfcheck")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if cfg.seconds <= 0 || (cfg.traceOut != "" && !cfg.trace) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, and -trace-out needs -trace 1")
		return 2
	}
	if *selfcheck {
		return selfCheck(cfg, *k, stdout, stderr)
	}
	out, inf, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	json.NewEncoder(stderr).Encode(inf)
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}
