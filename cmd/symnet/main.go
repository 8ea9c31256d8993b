// Command symnet analyzes a Click configuration: it parses the config,
// injects a symbolic TCP packet at the given element/port, runs symbolic
// execution with loop detection, and prints every explored path as JSON
// (the paper's output format: per-path variables, constraints, and the
// ports visited).
//
//	symnet -config pipeline.click -inject dut:0 [-loop addr|full|off]
//	symnet -config pipeline.click -dump-ir        # compiled programs, no run
//
// The output always ends with a "solver" block (solver call counters plus
// the satisfiability-cache hit/miss totals). -metrics adds a schema-versioned
// "metrics" block (the obs registry snapshot), -trace-out writes the query's
// "explore" span as JSONL, and -debug-addr serves expvar (live metrics) plus
// net/http/pprof for the duration of the run. All three are observational:
// enabling them changes no path, status, or solver counter.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"symnet"
	"symnet/internal/click"
	"symnet/internal/core"
	"symnet/internal/obs"
	"symnet/internal/prog"
	"symnet/internal/sefl"
	"symnet/internal/solver"
	"symnet/internal/verify"
)

type pathJSON struct {
	ID          int               `json:"id"`
	Status      string            `json:"status"`
	FailMessage string            `json:"fail_message,omitempty"`
	Ports       []string          `json:"ports"`
	Fields      map[string]string `json:"fields,omitempty"`
	Trace       []string          `json:"trace,omitempty"`
}

func main() {
	cfgPath := flag.String("config", "", "Click configuration file")
	inject := flag.String("inject", "", "injection point: element:port")
	loopMode := flag.String("loop", "full", "loop detection: off|full|addr")
	trace := flag.Bool("trace", false, "record executed instructions per path")
	packet := flag.String("packet", "tcp", "packet template: tcp|udp|ip|ether")
	dumpIR := flag.Bool("dump-ir", false, "print the compiled IR of every element-port program and exit")
	metrics := flag.Bool("metrics", false, "attach a metrics registry and add a schema-versioned \"metrics\" block to the JSON output")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars (expvar incl. live metrics) and /debug/pprof on this address during the run")
	traceOut := flag.String("trace-out", "", "write phase spans as JSONL to this file (flame-graph/trace-viewer input)")
	flag.Parse()
	if *cfgPath == "" || (*inject == "" && !*dumpIR) {
		fmt.Fprintln(os.Stderr, "usage: symnet -config FILE (-inject element:port | -dump-ir)")
		os.Exit(2)
	}
	f, err := os.Open(*cfgPath)
	if err != nil {
		fatal(err)
	}
	cfg, err := click.ParseConfig(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if *dumpIR {
		for _, e := range cfg.Net.Elements() {
			for _, p := range e.Programs() {
				fmt.Println(p)
			}
		}
		return
	}
	elem, port, err := parseInject(*inject)
	if err != nil {
		fatal(err)
	}
	opts := core.Options{Trace: *trace}
	switch *loopMode {
	case "off":
		opts.Loop = core.LoopOff
	case "full":
		opts.Loop = core.LoopFull
	case "addr":
		opts.Loop = core.LoopAddrOnly
	default:
		fatal(fmt.Errorf("unknown loop mode %q", *loopMode))
	}
	var tmpl sefl.Instr
	switch *packet {
	case "tcp":
		tmpl = sefl.NewTCPPacket()
	case "udp":
		tmpl = sefl.NewUDPPacket()
	case "ip":
		tmpl = sefl.NewIPPacket()
	case "ether":
		tmpl = sefl.NewEthernetPacket()
	default:
		fatal(fmt.Errorf("unknown packet template %q", *packet))
	}
	// Observability: a registry when -metrics or -debug-addr asked for one, a
	// JSONL tracer when -trace-out named a file. All of it is observational —
	// paths, statuses and solver statistics are byte-identical with or
	// without it.
	var reg *obs.Registry
	if *metrics || *debugAddr != "" {
		reg = obs.NewRegistry()
		prog.RegisterMetrics(reg)
	}
	var trc *obs.Tracer
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer tf.Close()
		trc = obs.NewTracer(tf)
	}
	if reg != nil || trc != nil {
		opts.Obs = obs.New(reg, trc)
	}
	if *debugAddr != "" {
		bound, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "symnet: debug server on http://"+bound+"/debug/vars")
	}

	// An explicit SatCache (core.Run would make an anonymous one) so the
	// solver block below can fold the cache's lifetime hit/miss counters
	// into the printed stats — see solver.Stats.AddCache.
	memo := solver.NewSatCache()
	opts.SatMemo = memo
	memo.RegisterMetrics(reg)
	sess, err := symnet.Compile(cfg.Net, opts)
	if err != nil {
		fatal(err)
	}
	// The query is the run's one span: -trace-out writes it, -metrics
	// folds it into phase.explore_ns.
	finish := opts.Obs.Span("explore", *inject, -1)
	res, err := sess.Run(core.PortRef{Elem: elem, Port: port}, tmpl)
	finish()
	if err != nil {
		fatal(err)
	}
	stats := res.Stats
	fields := []sefl.Hdr{sefl.EtherDst, sefl.EtherSrc, sefl.IPSrc, sefl.IPDst, sefl.IPTTL, sefl.TcpSrc, sefl.TcpDst}
	out := []pathJSON{}
	for _, p := range res.Paths {
		pj := pathJSON{ID: p.ID, Status: p.Status.String(), FailMessage: p.FailMsg, Trace: p.Trace}
		for _, h := range p.History() {
			pj.Ports = append(pj.Ports, h.String())
		}
		if p.Status == core.Delivered {
			pj.Fields = map[string]string{}
			for _, h := range fields {
				d, err := verify.FieldDomain(p, h)
				if err != nil {
					continue
				}
				pj.Fields[h.Name] = d.String()
			}
		}
		out = append(out, pj)
	}
	// The solver block carries the run's deterministic solver counters plus
	// the SatCache's lifetime hit/miss totals, folded in here at the
	// reporting boundary (they are interleaving-dependent, so the engine
	// never counts them during the run — see solver.Stats).
	solverStats := stats.Solver
	solverStats.AddCache(memo)
	doc := map[string]any{
		"paths":     out,
		"delivered": stats.Delivered,
		"failed":    stats.Failed,
		"looped":    stats.Looped,
		"solver": map[string]any{
			"adds":         solverStats.Adds,
			"sat_checks":   solverStats.SatChecks,
			"branches":     solverStats.Branches,
			"models":       solverStats.Models,
			"cache_hits":   solverStats.CacheHits,
			"cache_misses": solverStats.CacheMisses,
		},
	}
	if *metrics {
		doc["metrics"] = reg.Snapshot()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

func parseInject(s string) (string, int, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("inject %q: want element:port", s)
	}
	port, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("inject %q: bad port", s)
	}
	return s[:i], port, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symnet:", err)
	os.Exit(1)
}
