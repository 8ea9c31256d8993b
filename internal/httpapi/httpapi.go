// Package httpapi is the /v1 HTTP surface over a live symnet.Serving handle:
// the one handler symnetd, its tests and HTTP load generators share.
//
// Endpoints (JSON; errors use a uniform {"error": ..., "code": ...} envelope):
//
//	GET  /healthz          liveness ("ok": a Serving exists only once the
//	                       initial verification is resident)
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
// Request bodies are capped (maxDeltaBody, maxSnapshotBody; 413 beyond).
// Long-polls and SSE streams return when the request context ends, so a
// server that cancels its BaseContext drains them before Shutdown.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"symnet"
	"symnet/internal/churn"
)

// Handler serves the /v1 surface (and /healthz) over sv.
func Handler(sv *symnet.Serving) http.Handler { return newServer(sv).mux() }

// server exposes a Serving handle over the /v1 HTTP surface. All mutations
// funnel through the handle's absorber; report and watch reads are lock-free
// against published versions.
type server struct {
	sv *symnet.Serving
	// maxWait bounds long-poll waits (/v1/report?version=, /v1/watch?poll=1)
	// so proxies do not reap idle connections.
	maxWait time.Duration
	// maxDelta and maxSnapshot cap the POST bodies (413 beyond).
	maxDelta, maxSnapshot int64
}

func newServer(sv *symnet.Serving) *server {
	return &server{sv: sv, maxWait: 25 * time.Second, maxDelta: maxDeltaBody, maxSnapshot: maxSnapshotBody}
}

// Input bounds. A delta stream is a few hundred bytes per line, and one
// POST is one Apply, absorbed in one pass however many deltas it carries,
// so the cap bounds that pass; a snapshot is every resident table (the
// heavy backbone's is ~1 MB).
const (
	maxDeltaBody    = 8 << 20
	maxSnapshotBody = 64 << 20
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
		log.Printf("httpapi: encode response: %v", err)
	}
}

// deltaResponse is the wire shape of one absorbed POST /v1/delta stream.
type deltaResponse struct {
	// Version is the report version the pass that absorbed this stream
	// published, or the current one when every delta was rejected.
	Version uint64 `json:"version"`
	// Applied counts this stream's deltas that were absorbed; Rejected the
	// inapplicable ones; Malformed the undecodable lines.
	Applied   int `json:"applied"`
	Rejected  int `json:"rejected"`
	Malformed int `json:"malformed"`
	// Batch is the absorption pass the stream rode in (it may cover deltas
	// from concurrent submissions coalesced into the same pass). Nil when
	// nothing applied.
	Batch *symnet.BatchReport `json:"batch,omitempty"`
	// Results aligns with the decoded deltas, in stream order.
	Results []symnet.DeltaStatus `json:"results,omitempty"`
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
	res, err := s.sv.Apply(r.Context(), ds...)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "submit_failed", err.Error())
		return
	}
	out := deltaResponse{
		Applied:   res.Applied,
		Rejected:  len(ds) - res.Applied,
		Malformed: len(bad),
		Batch:     res.Batch,
		Results:   res.Statuses,
		Errors:    bad,
	}
	if res.Batch != nil {
		out.Version = res.Batch.Version
	} else {
		// Every delta was rejected, so no pass absorbed this stream.
		out.Version = s.sv.Current().Version
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

func reportOf(pr *symnet.PublishedReport) reportPayload {
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
		writeJSON(w, http.StatusOK, reportOf(s.sv.Current()))
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
	sub := s.sv.Watch(8)
	defer sub.Cancel()
	if pr := s.sv.Current(); pr.Version > since {
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
				if pr := s.sv.Current(); pr.Version > since {
					writeJSON(w, http.StatusOK, reportOf(pr))
				} else {
					w.WriteHeader(http.StatusNoContent)
				}
				return
			}
			if pr := s.sv.Current(); pr.Version > since {
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
		since = s.sv.Current().Version
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
	sub := s.sv.Watch(64)
	defer sub.Cancel()
	timer := time.NewTimer(s.waitFor(r))
	defer timer.Stop()
	for {
		evs, ok := s.sv.TransitionsSince(since)
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
	sub := s.sv.Watch(64)
	defer sub.Cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Flush the handshake so clients see the stream open before the first
	// event.
	fl.Flush()

	send := func(ev symnet.VersionEvent) bool {
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
	if evs, complete := s.sv.TransitionsSince(since); complete {
		for _, ev := range evs {
			if !send(ev) {
				return
			}
			last = ev.Version
		}
	} else {
		// Beyond the ring: tell the client to re-sync its baseline, then
		// stream live from here.
		fmt.Fprintf(w, "event: resync\ndata: {\"version\": %d}\n\n", s.sv.Current().Version)
		fl.Flush()
	}
	for {
		select {
		case ev, chOK := <-sub.Events:
			if !chOK {
				// Lagged past the buffer or shutdown; the client reconnects.
				fmt.Fprintf(w, "event: resync\ndata: {\"version\": %d}\n\n", s.sv.Current().Version)
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
		st, err := s.sv.Export(r.Context())
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, "export_failed", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodPost:
		st, err := symnet.ReadServingState(http.MaxBytesReader(w, r.Body, s.maxSnapshot))
		if err != nil {
			writeBodyErr(w, err, "bad_snapshot")
			return
		}
		pub, err := s.sv.Restore(r.Context(), st)
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
