// Command symbench regenerates the paper's evaluation (§8) and prints rows
// shaped like the original tables and figures. Select experiments with -run;
// -quick shrinks every workload for a fast pass.
//
//	symbench -run table1      # Klee paths/runtimes on options code
//	symbench -run fig8        # switch model scaling (Basic/Ingress/Egress)
//	symbench -run table2      # core-router analysis
//	symbench -run table3      # HSA vs SymNet on the Stanford-like backbone
//	symbench -run table4      # options-code property coverage
//	symbench -run table5      # capability matrix
//	symbench -run conform     # §8.3 model vs implementation, from Click text
//	symbench -run splittcp    # §8.4 middlebox scenarios
//	symbench -run dept        # §8.5 department network
//	symbench -run all
//
// A Table 5 capability, a §8.3 conformance row (a correct element model that
// disagrees with its implementation, or a buggy one that passes) or a
// §8.4/§8.5 scenario that does not reproduce prints FAILED, and symbench then
// exits 1. The times in the rows are the paper's columns, for reading;
// measuring is ./benchmark's job.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"symnet/internal/datasets"
	"symnet/internal/experiments"
)

// experimentTable is the -run vocabulary in print order. Each experiment
// prints its table and returns how many of its rows failed to reproduce.
var experimentTable = []struct {
	name string
	run  func(quick bool) (failed int)
}{
	{"table1", table1},
	{"fig8", fig8},
	{"table2", table2},
	{"table3", table3},
	{"table4", table4},
	{"table5", table5},
	{"conform", conformance},
	{"splittcp", splittcp},
	{"dept", dept},
}

// validExperiments lists every name -run accepts: the experiments and "all".
func validExperiments() []string {
	names := make([]string, 0, len(experimentTable)+1)
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// parseRuns parses the comma-separated -run list, erroring on unknown
// experiment names with the valid vocabulary in the message, so a typo fails
// loudly instead of silently running nothing.
func parseRuns(spec string) (map[string]bool, error) {
	valid := validExperiments()
	sel := make(map[string]bool)
	for _, name := range strings.Split(strings.ToLower(spec), ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		sel[name] = true
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("empty -run list (valid: %s)", strings.Join(valid, ", "))
	}
	return sel, nil
}

func main() {
	run := flag.String("run", "all", "comma-separated experiments to run ("+strings.Join(validExperiments(), "|")+")")
	quick := flag.Bool("quick", false, "smaller workloads for a fast pass")
	flag.Parse()
	sel, err := parseRuns(*run)
	if err != nil {
		fail(err)
	}
	failed := 0
	for _, e := range experimentTable {
		if sel["all"] || sel[e.name] {
			failed += e.run(*quick)
		}
	}
	if failed > 0 {
		fail(fmt.Errorf("%d row(s) FAILED to reproduce", failed))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "symbench:", err)
	os.Exit(1)
}

// status renders a reproduction verdict and counts a failure into failed.
func status(ok bool, failed *int) string {
	if ok {
		return "OK"
	}
	*failed++
	return "FAILED"
}

func table1(quick bool) int {
	maxLen := 7
	if quick {
		maxLen = 5
	}
	fmt.Printf("== Table 1: naive symbolic execution of TCP-options parsing ==\n")
	fmt.Printf("%-8s %-12s %-12s %s\n", "Length", "Paths", "Paper", "Runtime")
	for _, r := range experiments.Table1(maxLen) {
		fmt.Printf("%-8d %-12d %-12d %v\n", r.Length, r.Paths, r.PaperPaths, r.Time)
	}
	fmt.Printf("\n")
	return 0
}

func fig8(quick bool) int {
	egressMax := 480000
	if quick {
		egressMax = 100000
	}
	fmt.Printf("== Fig. 8: switch model scaling (symbolic EtherDst) ==\n")
	fmt.Printf("%-9s %-10s %-8s %-12s %s\n", "Style", "Entries", "Paths", "SolverOps", "Time")
	rows, err := experiments.Fig8(20, 42, egressMax)
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		fmt.Printf("%-9v %-10d %-8d %-12d %v\n", r.Style, r.Entries, r.Paths, r.SolverOps, r.Time)
	}
	fmt.Printf("\n")
	return 0
}

func table2(quick bool) int {
	ports := 16
	if quick {
		ports = 8
	}
	fmt.Printf("== Table 2: core-router analysis ==\n")
	fmt.Printf("%-9s %-10s %-8s %-12s %-12s %s\n", "Style", "Prefixes", "Paths", "GenTime", "Runtime", "Exclusions")
	rows, err := experiments.Table2(ports, 7)
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		if r.DNF {
			fmt.Printf("%-9v %-10d DNF\n", r.Style, r.Prefixes)
			continue
		}
		fmt.Printf("%-9v %-10d %-8d %-12v %-12v %d\n", r.Style, r.Prefixes, r.Paths, r.GenTime, r.Time, r.Exclusions)
	}
	fmt.Printf("\n")
	return 0
}

func table3(quick bool) int {
	zones, perZone := 14, 1000
	if quick {
		zones, perZone = 8, 100
	}
	fmt.Printf("== Table 3: HSA vs SymNet (Stanford-like backbone) ==\n")
	rows, err := experiments.Table3(zones, perZone)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-8s %-14s %-14s %s\n", "Tool", "Generation", "Runtime", "Endpoints")
	for _, r := range rows {
		fmt.Printf("%-8s %-14v %-14v %d\n", r.Tool, r.GenTime, r.RunTime, r.Reached)
	}
	fmt.Printf("\n")
	return 0
}

func table4(bool) int {
	fmt.Printf("== Table 4: Klee vs SymNet on TCP-options firewall code ==\n")
	rows, err := experiments.Table4()
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-34s %-32s %s\n", "Property", "Klee (naive executor)", "SymNet (SEFL model)")
	for _, r := range rows {
		fmt.Printf("%-34s %-32s %s\n", r.Property, r.Klee, r.SymNet)
	}
	fmt.Printf("\n")
	return 0
}

func table5(bool) int {
	failed := 0
	fmt.Printf("== Table 5: verification-tool capabilities (SymNet column verified by runnable scenarios) ==\n")
	fmt.Printf("%-26s %-6s %-6s %s\n", "Capability", "HSA", "NOD", "SymNet")
	for _, r := range experiments.Table5() {
		if !r.Verified { // its SymNet column reads FAILED
			failed++
		}
		fmt.Printf("%-26s %-6s %-6s %s\n", r.Capability, r.HSA, r.NOD, r.SymNet)
	}
	fmt.Printf("\n")
	return failed
}

func conformance(bool) int {
	failed := 0
	fmt.Printf("== §8.3: SEFL models vs their Click implementations ==\n")
	rows, err := experiments.Conformance()
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		fmt.Printf("%-28s %-56s %s\n", r.Class, r.Detail, status(r.OK, &failed))
	}
	fmt.Printf("\n")
	return failed
}

func splittcp(bool) int {
	failed := 0
	fmt.Printf("== §8.4: Split-TCP middlebox scenarios (Fig. 10) ==\n")
	fs, err := experiments.SplitTCP()
	if err != nil {
		fail(err)
	}
	for _, f := range fs {
		fmt.Printf("%-28s %-56s %s\n", f.Scenario, f.Detail, status(f.OK, &failed))
	}
	fmt.Printf("\n")
	return failed
}

func dept(quick bool) int {
	failed := 0
	fmt.Printf("== §8.5: CS department network (Fig. 11) ==\n")
	cfg := datasets.DefaultDepartment()
	if quick {
		cfg = datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 5}
	}
	for _, fixed := range []bool{false, true} {
		cfg.Fixed = fixed
		label := "before fix"
		if fixed {
			label = "after fix"
		}
		t0 := time.Now()
		fs, res, err := experiments.Department(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("-- %s (MACs=%d routes=%d paths=%d %v) --\n", label, cfg.HostsPerSwitch*cfg.NumAccessSwitches, cfg.Routes, res.Stats.Paths, time.Since(t0).Round(time.Millisecond))
		for _, f := range fs {
			fmt.Printf("%-46s %-52s %s\n", f.Name, f.Detail, status(f.OK, &failed))
		}
	}
	fmt.Printf("\n")
	return failed
}
