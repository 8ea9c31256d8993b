// Command symnet analyzes a Click configuration: it parses the config,
// injects a symbolic TCP packet at the given element/port, runs symbolic
// execution with loop detection, and prints every explored path as JSON
// (the paper's output format: per-path variables, constraints, and the
// ports visited).
//
//	symnet -config pipeline.click -inject dut:0 [-loop addr|full|off] [-workers N]
//	symnet -config pipeline.click -inject dut:0 -procs 4   # run in a worker subprocess
//	symnet -config pipeline.click -dump-ir        # compiled programs, no run
//
// The output always ends with a "solver" block (solver call counters plus
// the satisfiability-cache hit/miss totals) and a "summaries" block (how
// many element-port programs the engine summarized, and how many fall back
// to IR dispatch). -metrics adds a schema-versioned
// "metrics" block (the obs registry snapshot), -trace-out writes phase spans
// as JSONL, and -debug-addr serves expvar (live metrics) plus net/http/pprof
// for the duration of the run. All three are observational: enabling them
// changes no path, status, or solver counter.
//
// With -procs N >= 1 the run executes on a distributed worker subprocess
// (internal/dist): the network and compiled IR are serialized, shipped, and
// explored remotely, and the output is built from the returned summary —
// identical paths, statuses, ports and traces, minus the per-path field
// domains, which need live solver contexts and are only printed for
// in-process runs. One exploration is one job, so -procs mainly exercises
// the distributed path end to end; batch workloads fan wider (see
// symbench -run allpairs-dist).
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
	"symnet/internal/dist"
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
	dist.MaybeWorker() // spawned as a distributed worker: never returns

	cfgPath := flag.String("config", "", "Click configuration file")
	inject := flag.String("inject", "", "injection point: element:port")
	loopMode := flag.String("loop", "full", "loop detection: off|full|addr")
	trace := flag.Bool("trace", false, "record executed instructions per path")
	packet := flag.String("packet", "tcp", "packet template: tcp|udp|ip|ether")
	workers := flag.Int("workers", 1, "exploration workers (0 = all cores); results are identical for any count")
	procs := flag.Int("procs", 0, "run on a distributed worker subprocess (0 = in-process; field domains print only in-process)")
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
	var o *obs.Obs
	if reg != nil || trc != nil {
		o = obs.New(reg, trc)
		opts.Obs = o
	}
	if *debugAddr != "" {
		bound, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "symnet: debug server on http://"+bound+"/debug/vars")
	}

	injectRef := core.PortRef{Elem: elem, Port: port}
	out := []pathJSON{}
	var stats core.RunStats
	var memo *solver.SatCache
	if *procs > 0 {
		// One exploration is one job, so one subprocess carries it whatever
		// -procs says.
		runner, err := dist.NewRunner(dist.Config{Procs: 1, WorkersPerProc: *workers, ShareSat: true, Obs: o})
		if err != nil {
			fatal(err)
		}
		jobs := []dist.Job{{Name: *inject, Inject: injectRef, Packet: tmpl, Opts: opts}}
		jr := runner.RunBatch(cfg.Net, jobs)[0]
		runner.Close()
		if jr.Err != nil {
			fatal(jr.Err)
		}
		stats = jr.Summary.Stats
		for i := range jr.Summary.Paths {
			p := &jr.Summary.Paths[i]
			out = append(out, newPathJSON(p.ID, p.Status, p.FailMsg, p.Trace, p.Ports))
		}
	} else {
		// An explicit SatCache (core.Run would make an anonymous one) so the
		// solver block below can fold the cache's lifetime hit/miss counters
		// into the printed stats — see solver.Stats.AddCache.
		memo = solver.NewSatCache()
		opts.SatMemo = memo
		memo.RegisterMetrics(reg)
		if opts.Workers = *workers; *workers == 0 {
			opts.Workers = -1 // a Session reads < 0 as all cores
		}
		sess, err := symnet.Compile(cfg.Net, opts)
		if err != nil {
			fatal(err)
		}
		res, err := sess.Run(injectRef, tmpl)
		if err != nil {
			fatal(err)
		}
		stats = res.Stats
		fields := []sefl.Hdr{sefl.EtherDst, sefl.EtherSrc, sefl.IPSrc, sefl.IPDst, sefl.IPTTL, sefl.TcpSrc, sefl.TcpDst}
		for _, p := range res.Paths {
			pj := newPathJSON(p.ID, p.Status, p.FailMsg, p.Trace, p.History())
			// Field domains need the path's live solver context, so they are
			// an in-process-only enrichment.
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
	}
	// The solver block carries the run's deterministic solver counters plus
	// the SatCache's lifetime hit/miss totals, folded in here at the
	// reporting boundary (they are interleaving-dependent, so the engine
	// never counts them during the run — see solver.Stats).
	solverStats := stats.Solver
	solverStats.AddCache(memo)
	summarized, fallback := 0, 0
	for _, c := range core.SummaryCensus(cfg.Net) {
		if c.Summarized {
			summarized++
		} else {
			fallback++
		}
	}
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
		"summaries": map[string]any{"summarized": summarized, "fallback": fallback},
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

func newPathJSON(id int, status core.Status, failMsg string, trace []string, ports []core.PortRef) pathJSON {
	pj := pathJSON{ID: id, Status: status.String(), FailMessage: failMsg, Trace: trace}
	for _, h := range ports {
		pj.Ports = append(pj.Ports, h.String())
	}
	return pj
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
