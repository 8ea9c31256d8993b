// Command symnetd is a long-lived incremental verification daemon: it holds
// a compiled network and its all-pairs reachability report resident, accepts
// rule deltas over HTTP, and re-verifies only what each delta can affect
// (internal/churn). This is the deployment mode the paper's static-analysis
// speed enables: verification keeping pace with rule churn instead of
// recomputing from scratch per control-plane event.
//
//	symnetd -network department -listen 127.0.0.1:7080
//	symnetd -network backbone -quick -debug-addr 127.0.0.1:7081
//
// The serving core is a churn.Resident: one absorber goroutine drains a
// bounded intake queue and coalesces concurrently queued deltas into a
// single staged batch — one patch pass and one re-verification per batch —
// while readers traverse immutable published report versions lock-free.
//
// Endpoints (JSON; errors use a uniform {"error": ..., "code": ...} envelope):
//
//	GET  /healthz          liveness ("ok" once the initial verification is resident)
//	POST /v1/delta         JSON-lines rule deltas (the symgen -gen churn format);
//	                       malformed lines and inapplicable deltas are reported
//	                       per-line while the rest of the stream still applies.
//	                       200 if at least one delta applied, 400 if every line
//	                       was malformed, 422 if every decoded delta failed.
//	GET  /v1/report        the resident reachability matrix at the latest version;
//	                       ?version=V long-polls until a version > V is published
//	                       (204 on timeout)
//	GET  /v1/watch         reachability transition stream: SSE by default,
//	                       ?poll=1&since=V for JSON long-poll replay (410 when V
//	                       is beyond the replay ring — re-read /v1/report)
//	GET  /v1/snapshot      export the resident tables + version as JSON
//	POST /v1/snapshot      restore a previously exported snapshot
//
// Request bodies are capped (maxDeltaBody, maxSnapshotBody; 413 beyond) and
// request headers must arrive within readHeaderTimeout.
//
// -state FILE restores a snapshot at startup (if the file exists) and
// persists one on SIGINT/SIGTERM shutdown, atomically: the previous snapshot
// survives a crash mid-write. -debug-addr serves expvar under
// /debug/vars with the churn.* instruments (churn.batch_ns, churn.version,
// churn.queue.depth, churn.watch.subscribers, ...) and the shared
// solver.satcache.* counters, plus net/http/pprof.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"symnet/internal/churn"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/obs"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// buildService constructs the resident workload for a named topology. The
// injected packet is destination-constrained (one monitored zone / the
// department's first IP hop) so deltas stay localized — the regime the
// incremental service is built for.
func buildService(network string, quick, heavy bool, runner dist.Runner, reg *obs.Registry) (*churn.Service, string, error) {
	cfg := churn.Config{Runner: runner, Reg: reg}
	var fibs map[string]tables.FIB
	var macs map[string]tables.MACTable
	var desc string
	switch network {
	case "backbone":
		zones, perZone := 8, 100
		if quick {
			zones, perZone = 4, 24
		}
		if heavy {
			zones, perZone = 14, 300
		}
		b := datasets.StanfordBackbone(zones, perZone)
		cfg.Net, fibs = b.Net, b.FIBs
		cfg.Sources, cfg.Targets = b.AllPairs()
		cfg.Packet = sefl.Seq(
			sefl.NewIPPacket(),
			sefl.Constrain{C: sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: sefl.IPToNumber("10.0.0.0"), Len: 16}},
		)
		desc = fmt.Sprintf("stanford backbone (%d zones, %d routes/zone, %d rules)", zones, perZone, b.Rules)
	case "department":
		dc := datasets.DefaultDepartment()
		if quick {
			dc = datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 11}
		}
		if heavy {
			dc = datasets.HeavyDepartment()
		}
		d := datasets.NewDepartment(dc)
		cfg.Net, fibs, macs = d.Net, d.FIBs, d.MACTables
		cfg.Sources, cfg.Targets = d.AllPairs()
		cfg.Packet = sefl.Seq(
			sefl.NewTCPPacket(),
			sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(sefl.MACToNumber(d.ASAMac), sefl.MACWidth))},
		)
		desc = fmt.Sprintf("department (%d access switches, %d MAC entries, %d routes)",
			dc.NumAccessSwitches, d.MACEntries, d.RouteEntries)
	default:
		return nil, "", fmt.Errorf("unknown -network %q (want department|backbone)", network)
	}
	svc := churn.NewService(cfg)
	for name, tbl := range macs {
		svc.RegisterSwitch(name, tbl)
	}
	for name, fib := range fibs {
		svc.RegisterRouter(name, fib)
	}
	return svc, desc, nil
}

// server exposes a churn.Resident over the /v1 HTTP surface. All mutations
// funnel through the resident's absorber; report and watch reads are
// lock-free against published versions.
type server struct {
	res *churn.Resident
	// maxWait bounds long-poll waits (/v1/report?version=, /v1/watch?poll=1)
	// so proxies do not reap idle connections.
	maxWait time.Duration
	// maxDelta and maxSnapshot cap the POST bodies (413 beyond).
	maxDelta, maxSnapshot int64
}

func newServer(res *churn.Resident) *server {
	return &server{res: res, maxWait: 25 * time.Second, maxDelta: maxDeltaBody, maxSnapshot: maxSnapshotBody}
}

// Input bounds. A delta stream is a few hundred bytes per line and one
// absorption pass takes at most -max-batch of them; a snapshot is every
// resident table (the heavy backbone's is ~1 MB).
const (
	maxDeltaBody      = 8 << 20
	maxSnapshotBody   = 64 << 20
	readHeaderTimeout = 10 * time.Second
)

// writeErr emits the uniform error envelope.
func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]string{"error": msg, "code": code})
}

// writeBodyErr reports a request body that failed to decode: 413 when it ran
// into its http.MaxBytesReader cap, 400 under the given code otherwise.
func writeBodyErr(w http.ResponseWriter, err error, code string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	writeErr(w, http.StatusBadRequest, code, err.Error())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("symnetd: encode response: %v", err)
	}
}

// deltaResponse is the wire shape of one absorbed POST /v1/delta stream.
type deltaResponse struct {
	// Version is the report version after this submission.
	Version uint64 `json:"version"`
	// Applied counts this stream's deltas that were absorbed; Rejected the
	// inapplicable ones; Malformed the undecodable lines.
	Applied   int `json:"applied"`
	Rejected  int `json:"rejected"`
	Malformed int `json:"malformed"`
	// Batch is the absorption pass the stream rode in (it may cover deltas
	// from concurrent submissions coalesced into the same pass). Nil when
	// nothing applied.
	Batch *churn.BatchResult `json:"batch,omitempty"`
	// Results aligns with the decoded deltas, in stream order.
	Results []churn.DeltaStatus `json:"results,omitempty"`
	// Errors lists the malformed lines.
	Errors []churn.LineError `json:"errors,omitempty"`
}

func (s *server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return
	}
	ds, bad, err := churn.DecodeDeltasLenient(http.MaxBytesReader(w, r.Body, s.maxDelta))
	if err != nil {
		writeBodyErr(w, err, "bad_stream")
		return
	}
	if len(ds) == 0 && len(bad) == 0 {
		writeErr(w, http.StatusBadRequest, "empty_stream", "empty delta stream")
		return
	}
	if len(ds) == 0 {
		// Every line was malformed: nothing to absorb.
		writeErr(w, http.StatusBadRequest, "all_malformed",
			fmt.Sprintf("all %d lines malformed (line %d: %s)", len(bad), bad[0].Line, bad[0].Err))
		return
	}
	res, err := s.res.Submit(r.Context(), ds)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "submit_failed", err.Error())
		return
	}
	out := deltaResponse{
		Version:   s.res.Current().Version,
		Applied:   res.Applied,
		Rejected:  len(ds) - res.Applied,
		Malformed: len(bad),
		Batch:     res.Batch,
		Results:   res.Statuses,
		Errors:    bad,
	}
	status := http.StatusOK
	if res.Applied == 0 {
		// Every decoded delta failed to apply: surface the failure while
		// still reporting the per-delta reasons.
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, out)
}

// reportPayload is the wire shape of one published report version.
type reportPayload struct {
	Version       uint64   `json:"version"`
	DeltasApplied uint64   `json:"deltas_applied"`
	Sources       []string `json:"sources"`
	Targets       []string `json:"targets"`
	Reachable     [][]bool `json:"reachable"`
	PathCount     [][]int  `json:"path_count"`
	Cells         int      `json:"cells"`
}

func reportOf(pr *churn.PublishedReport) reportPayload {
	rep := pr.Report
	srcs := make([]string, len(rep.Sources))
	for i, p := range rep.Sources {
		srcs[i] = p.String()
	}
	return reportPayload{
		Version:       pr.Version,
		DeltasApplied: pr.DeltasApplied,
		Sources:       srcs,
		Targets:       rep.Targets,
		Reachable:     rep.Reachable,
		PathCount:     rep.PathCount,
		Cells:         len(rep.Sources) * len(rep.Targets),
	}
}

// waitFor bounds a long poll by the request context, ?timeout_ms, and the
// server cap.
func (s *server) waitFor(r *http.Request) time.Duration {
	d := s.maxWait
	if ms, err := strconv.Atoi(r.URL.Query().Get("timeout_ms")); err == nil && ms > 0 {
		if t := time.Duration(ms) * time.Millisecond; t < d {
			d = t
		}
	}
	return d
}

func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET required")
		return
	}
	q := r.URL.Query().Get("version")
	if q == "" {
		writeJSON(w, http.StatusOK, reportOf(s.res.Current()))
		return
	}
	since, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_version", "version must be a decimal integer")
		return
	}
	// Long poll: answer as soon as a version newer than `since` is
	// published. Subscribe before the fast-path check so a publish between
	// the two cannot be missed.
	sub := s.res.Watch(8)
	defer sub.Cancel()
	if pr := s.res.Current(); pr.Version > since {
		writeJSON(w, http.StatusOK, reportOf(pr))
		return
	}
	timer := time.NewTimer(s.waitFor(r))
	defer timer.Stop()
	for {
		select {
		case _, ok := <-sub.Events:
			if !ok {
				// Dropped (lagged) or hub closed: the current version is
				// still authoritative.
				if pr := s.res.Current(); pr.Version > since {
					writeJSON(w, http.StatusOK, reportOf(pr))
				} else {
					w.WriteHeader(http.StatusNoContent)
				}
				return
			}
			if pr := s.res.Current(); pr.Version > since {
				writeJSON(w, http.StatusOK, reportOf(pr))
				return
			}
		case <-timer.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET required")
		return
	}
	q := r.URL.Query()
	since := uint64(0)
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_version", "since must be a decimal integer")
			return
		}
		since = n
	} else {
		// Default to "from now": only future transitions.
		since = s.res.Current().Version
	}
	if q.Get("poll") != "" {
		s.watchPoll(w, r, since)
		return
	}
	s.watchSSE(w, r, since)
}

// watchPoll is the JSON long-poll mode: replay retained events newer than
// `since` immediately, else wait for the next publish; 204 on timeout, 410
// when `since` is beyond the replay ring (client must re-read /v1/report).
func (s *server) watchPoll(w http.ResponseWriter, r *http.Request, since uint64) {
	sub := s.res.Watch(64)
	defer sub.Cancel()
	timer := time.NewTimer(s.waitFor(r))
	defer timer.Stop()
	for {
		evs, ok := s.res.TransitionsSince(since)
		if !ok {
			writeErr(w, http.StatusGone, "resync",
				fmt.Sprintf("version %d is beyond the replay window; re-read /v1/report", since))
			return
		}
		if len(evs) > 0 {
			writeJSON(w, http.StatusOK, map[string]any{"since": since, "events": evs})
			return
		}
		select {
		case _, chOK := <-sub.Events:
			if !chOK {
				w.WriteHeader(http.StatusNoContent)
				return
			}
		case <-timer.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// watchSSE streams version events as server-sent events until the client
// disconnects. Events retained past `since` are replayed first, so a client
// reconnecting with Last-Event-ID semantics misses nothing within the ring.
func (s *server) watchSSE(w http.ResponseWriter, r *http.Request, since uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "no_stream", "streaming unsupported")
		return
	}
	// Subscribe before replaying so no publish can fall between replay and
	// live delivery; events already replayed are skipped by version.
	sub := s.res.Watch(64)
	defer sub.Cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Flush the handshake so clients see the stream open before the first
	// event.
	fl.Flush()

	send := func(ev churn.VersionEvent) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: version\ndata: %s\n\n", ev.Version, b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	last := since
	if evs, complete := s.res.TransitionsSince(since); complete {
		for _, ev := range evs {
			if !send(ev) {
				return
			}
			last = ev.Version
		}
	} else {
		// Beyond the ring: tell the client to re-sync its baseline, then
		// stream live from here.
		fmt.Fprintf(w, "event: resync\ndata: {\"version\": %d}\n\n", s.res.Current().Version)
		fl.Flush()
	}
	for {
		select {
		case ev, chOK := <-sub.Events:
			if !chOK {
				// Lagged past the buffer or shutdown; the client reconnects.
				fmt.Fprintf(w, "event: resync\ndata: {\"version\": %d}\n\n", s.res.Current().Version)
				fl.Flush()
				return
			}
			if ev.Version <= last {
				continue
			}
			if !send(ev) {
				return
			}
			last = ev.Version
		case <-r.Context().Done():
			return
		}
	}
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		st, err := s.res.Export(r.Context())
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, "export_failed", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodPost:
		st, err := churn.ReadState(http.MaxBytesReader(w, r.Body, s.maxSnapshot))
		if err != nil {
			writeBodyErr(w, err, "bad_snapshot")
			return
		}
		pub, err := s.res.Restore(r.Context(), st)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "restore_failed", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"version":        pub.Version,
			"deltas_applied": pub.DeltasApplied,
		})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET or POST required")
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/delta", s.handleDelta)
	mux.HandleFunc("/v1/report", s.handleReport)
	mux.HandleFunc("/v1/watch", s.handleWatch)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	return mux
}

// saveState writes the snapshot to path+".tmp", syncs it and renames it into
// place, so a crash mid-write leaves the previous snapshot intact.
func saveState(path string, st *churn.State) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = st.WriteTo(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func main() {
	dist.MaybeWorker() // spawned as a distributed worker: never returns
	network := flag.String("network", "department", "resident topology: department|backbone")
	quick := flag.Bool("quick", false, "small topology (CI smoke)")
	heavy := flag.Bool("heavy", false, "paper-scale-plus topology")
	workers := flag.Int("workers", 0, "re-verification worker pool (0: GOMAXPROCS)")
	distWorkers := flag.String("dist-workers", "", "comma-separated host:port list of resident TCP workers (symworker -listen); verification passes shard across the fleet")
	distProcs := flag.Int("dist-procs", 0, "shard verification passes across this many persistent local worker subprocesses (ignored when -dist-workers is set)")
	listen := flag.String("listen", "127.0.0.1:7080", "HTTP listen address")
	debugAddr := flag.String("debug-addr", "", "serve expvar metrics and pprof on this address")
	stateFile := flag.String("state", "", "snapshot file: restored at startup if present, written on shutdown")
	queueDepth := flag.Int("queue-depth", 256, "bound on queued delta submissions")
	maxBatch := flag.Int("max-batch", 128, "max deltas coalesced into one absorption pass")
	flag.Parse()

	reg := obs.NewRegistry()
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			log.Fatalf("symnetd: debug server: %v", err)
		}
		log.Printf("symnetd: metrics at http://%s/debug/vars", addr)
	}

	var addrs []string
	if *distWorkers != "" {
		addrs = strings.Split(*distWorkers, ",")
	}
	runner, err := dist.NewRunner(dist.Config{
		Procs: *distProcs, Workers: addrs, WorkersPerProc: *workers,
		ShareSat: true, Obs: obs.New(reg, nil),
	})
	if err != nil {
		log.Fatalf("symnetd: %v", err)
	}
	defer runner.Close()
	if pool, ok := runner.(*dist.Pool); ok {
		log.Printf("symnetd: verification fleet: %d members", pool.Size())
	}

	svc, desc, err := buildService(*network, *quick, *heavy, runner, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symnetd:", err)
		os.Exit(2)
	}
	log.Printf("symnetd: compiling %s", desc)
	start := time.Now()
	if err := svc.Init(); err != nil {
		log.Fatalf("symnetd: initial verification: %v", err)
	}
	log.Printf("symnetd: resident report ready in %v (%d cells)", time.Since(start).Round(time.Millisecond), svc.TotalCells())

	if *stateFile != "" {
		if f, err := os.Open(*stateFile); err == nil {
			st, rerr := churn.ReadState(f)
			f.Close()
			if rerr != nil {
				log.Fatalf("symnetd: -state %s: %v", *stateFile, rerr)
			}
			pub, rerr := svc.RestoreState(st)
			if rerr != nil {
				log.Fatalf("symnetd: restore %s: %v", *stateFile, rerr)
			}
			log.Printf("symnetd: restored snapshot %s at version %d", *stateFile, pub.Version)
		} else if !os.IsNotExist(err) {
			log.Fatalf("symnetd: -state %s: %v", *stateFile, err)
		}
	}

	res := churn.NewResident(svc, churn.ResidentConfig{QueueDepth: *queueDepth, MaxBatch: *maxBatch})
	if err := res.Start(); err != nil {
		log.Fatalf("symnetd: %v", err)
	}

	s := newServer(res)
	httpSrv := &http.Server{Addr: *listen, Handler: s.mux(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("symnetd: listening on %s", *listen)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("symnetd: %v", err)
	case sig := <-sigc:
		log.Printf("symnetd: %v: shutting down", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if *stateFile != "" {
		if st, err := res.Export(ctx); err != nil {
			log.Printf("symnetd: export on shutdown: %v", err)
		} else if err := saveState(*stateFile, st); err != nil {
			log.Printf("symnetd: write %s: %v", *stateFile, err)
		} else {
			log.Printf("symnetd: snapshot saved to %s (version %d)", *stateFile, st.Version)
		}
	}
	res.Close()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("symnetd: shutdown: %v", err)
	}
}
