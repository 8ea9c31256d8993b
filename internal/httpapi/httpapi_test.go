package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"symnet"
	"symnet/internal/datasets"
	"symnet/internal/obs"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// quickServing stands up symnetd's -quick topology of the given name the way
// the daemon does: Compile -> Session.Serve over the dataset's tables.
func quickServing(network string, reg *obs.Registry) (*symnet.Serving, error) {
	var net *symnet.Network
	var cfg symnet.ServeConfig
	switch network {
	case "backbone":
		b := datasets.StanfordBackbone(4, 24)
		net, cfg.Routers = b.Net, b.FIBs
		cfg.Sources, cfg.Targets = b.AllPairs()
		cfg.Packet = sefl.Seq(
			sefl.NewIPPacket(),
			sefl.Constrain{C: sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: sefl.IPToNumber("10.0.0.0"), Len: 16}},
		)
	case "department":
		d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 11})
		net, cfg.Routers, cfg.Switches = d.Net, d.FIBs, d.MACTables
		cfg.Sources, cfg.Targets = d.AllPairs()
		cfg.Packet = sefl.Seq(
			sefl.NewTCPPacket(),
			sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(sefl.MACToNumber(d.ASAMac), sefl.MACWidth))},
		)
	}
	sess, err := symnet.Compile(net, symnet.Options{Workers: 2, Obs: obs.New(reg, nil)})
	if err != nil {
		return nil, err
	}
	return sess.Serve(cfg)
}

func newTestServer(t *testing.T, network string) (*server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	sv, err := quickServing(network, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Close)
	return newServer(sv), reg
}

// The department fixture's initial verification costs seconds, so the
// sequential department tests share one resident server. Each test uses its
// own access switch / fresh MACs so state never leaks between them.
var (
	deptOnce sync.Once
	deptSrv  *server
	deptTS   *httptest.Server
	deptErr  error
)

func deptServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	deptOnce.Do(func() {
		sv, err := quickServing("department", obs.NewRegistry())
		if err != nil {
			deptErr = err
			return
		}
		deptSrv = newServer(sv)
		deptTS = httptest.NewServer(deptSrv.mux())
	})
	if deptErr != nil {
		t.Fatal(deptErr)
	}
	return deptSrv, deptTS
}

// TestDaemonDeltaRoundTrip drives the HTTP API end to end on the quick
// backbone: health, a localized route delta on a non-monitored zone, a
// coalesced pair of route deltas that move no address, and the resident
// report afterwards.
func TestDaemonDeltaRoundTrip(t *testing.T) {
	s, reg := newTestServer(t, "backbone")
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}

	// zone1 owns 10.1.0.0/16 on its host port 2, with /24s for .0 to .23
	// there too; .77 and .78 are free. The monitored packet targets zone0's
	// /16, so only zone1's own source attempts zone1's egress guards.
	//
	// Moving 10.1.77.0/24 onto the backbone port 0 changes the address sets
	// of ports 0 and 2: localized to a single source, re-verifying a strict
	// subset of the matrix.
	out := postDeltas(t, ts, `{"elem":"zone1","op":"insert","prefix":"10.1.77.0/24","port":0}
`)
	if out.Applied != 1 || out.Rejected != 0 || out.Malformed != 0 {
		t.Fatalf("applied=%d rejected=%d malformed=%d, want 1/0/0", out.Applied, out.Rejected, out.Malformed)
	}
	if out.Version < 2 || out.Batch == nil || out.Version != out.Batch.Version {
		t.Fatalf("version=%d batch=%v; want the batch's own version", out.Version, out.Batch)
	}
	if out.Batch.DirtySources != 1 {
		t.Fatalf("batch dirtied %d sources, want 1 (localized)", out.Batch.DirtySources)
	}
	if cur := s.sv.Current().Report; out.Batch.CellsReverified >= len(cur.Sources)*len(cur.Targets) {
		t.Fatalf("batch reverified %d cells, want < %d", out.Batch.CellsReverified, len(cur.Sources)*len(cur.Targets))
	}

	// A /24 inserted under the /16 on the same port and a /24 deleted from
	// under it ride one submission, hence one coalesced batch. Port 2's rows
	// change but its address set does not, so no source is re-verified.
	out = postDeltas(t, ts, `{"elem":"zone1","op":"insert","prefix":"10.1.78.0/24","port":2}
{"elem":"zone1","op":"delete","prefix":"10.1.3.0/24"}
`)
	if out.Applied != 2 || out.Rejected != 0 || out.Malformed != 0 {
		t.Fatalf("applied=%d rejected=%d malformed=%d, want 2/0/0", out.Applied, out.Rejected, out.Malformed)
	}
	if out.Batch == nil || out.Batch.PortsPatched == 0 || out.Batch.DirtySources != 0 || out.Batch.CellsReverified != 0 {
		t.Fatalf("batch %+v; want a patched port and no source dirtied", out.Batch)
	}

	resp, err = http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep reportPayload
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Sources) == 0 || len(rep.Reachable) != len(rep.Sources) || rep.Cells != len(rep.Sources)*len(rep.Targets) {
		t.Fatalf("malformed report: %+v", rep)
	}
	if rep.Version != out.Version || rep.DeltasApplied != 3 {
		t.Fatalf("report version=%d deltas=%d, want %d/3", rep.Version, rep.DeltasApplied, out.Version)
	}

	snap := reg.Snapshot()
	if snap.Counters["churn.deltas.applied"] != 3 || snap.Counters["churn.cells.reverified"] == 0 {
		t.Fatalf("churn metrics not exported: %v", snap.Counters)
	}
	if snap.Counters["churn.batches.applied"] != 2 {
		t.Fatalf("churn.batches.applied = %d, want 2", snap.Counters["churn.batches.applied"])
	}
}

// postDeltas posts a delta stream to /v1/delta, demands 200 and decodes the
// response.
func postDeltas(t *testing.T, ts *httptest.Server, body string) deltaResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/delta", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/delta: %d", resp.StatusCode)
	}
	var out deltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDaemonDeltaStatuses is the mixed-success contract for POST /v1/delta:
// per-line outcomes, 200 when anything applied, 400 when every line is
// malformed, 422 when every decoded delta is inapplicable.
func TestDaemonDeltaStatuses(t *testing.T) {
	_, ts := deptServer(t)

	insert := `{"elem":"asw0","op":"insert","mac":"02:00:aa:00:00:07","port":1}`
	del := `{"elem":"asw0","op":"delete","mac":"02:00:aa:00:00:07"}`
	missing := `{"elem":"asw0","op":"delete","mac":"06:ff:ff:ff:ff:ff"}`
	unknownElem := `{"elem":"nosuch","op":"delete","mac":"02:00:00:00:00:00"}`
	badOp := `{"elem":"asw0","op":"teleport","mac":"02:00:00:00:00:00"}`
	notJSON := `{not json}`

	cases := []struct {
		name      string
		body      string
		want      int
		applied   int
		rejected  int
		malformed int
	}{
		{"empty", "", http.StatusBadRequest, 0, 0, 0},
		{"all malformed json", notJSON + "\n", http.StatusBadRequest, 0, 0, 1},
		{"all malformed op", badOp + "\n", http.StatusBadRequest, 0, 0, 1},
		{"all inapplicable", unknownElem + "\n" + missing + "\n", http.StatusUnprocessableEntity, 0, 2, 0},
		{"all applied", insert + "\n" + del + "\n", http.StatusOK, 2, 0, 0},
		{"mixed applied and inapplicable", insert + "\n" + missing + "\n" + del + "\n", http.StatusOK, 2, 1, 0},
		{"mixed applied and malformed", insert + "\n" + notJSON + "\n" + del + "\n", http.StatusOK, 2, 0, 1},
		{"mixed everything", badOp + "\n" + insert + "\n" + unknownElem + "\n" + del + "\n", http.StatusOK, 2, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/delta", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if resp.StatusCode == http.StatusBadRequest {
				var env struct {
					Error string `json:"error"`
					Code  string `json:"code"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
					t.Fatal(err)
				}
				if env.Error == "" || env.Code == "" {
					t.Fatalf("error envelope incomplete: %+v", env)
				}
				return
			}
			var out deltaResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if out.Applied != tc.applied || out.Rejected != tc.rejected || out.Malformed != tc.malformed {
				t.Fatalf("applied=%d rejected=%d malformed=%d, want %d/%d/%d",
					out.Applied, out.Rejected, out.Malformed, tc.applied, tc.rejected, tc.malformed)
			}
			for _, st := range out.Results {
				if !st.Applied && st.Err == "" {
					t.Fatalf("rejected delta without error: %+v", st)
				}
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/delta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/delta: %d, want 405", resp.StatusCode)
	}
	var env struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Code != "method_not_allowed" {
		t.Fatalf("405 envelope: %+v, %v", env, err)
	}
}

// TestDaemonBodyCaps: a POST body past its cap is cut off by
// http.MaxBytesReader and answered 413 in the error envelope, on both
// body-taking endpoints, before anything reaches the absorber.
func TestDaemonBodyCaps(t *testing.T) {
	s, _ := deptServer(t)
	small := *s
	small.maxDelta, small.maxSnapshot = 64, 64
	ts := httptest.NewServer(small.mux())
	defer ts.Close()
	before := s.sv.Current().Version
	for _, path := range []string{"/v1/delta", "/v1/snapshot"} {
		body := `{"pad":"` + strings.Repeat("a", 200) + `"}`
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Code string `json:"code"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || env.Code != "body_too_large" {
			t.Fatalf("POST %s over the cap: status %d, envelope %+v (%v), want 413 body_too_large", path, resp.StatusCode, env, err)
		}
	}
	if v := s.sv.Current().Version; v != before {
		t.Fatalf("an over-cap body published version %d (was %d)", v, before)
	}
}

// TestDaemonReportLongPoll: ?version= blocks until a newer version publishes
// and 204s on timeout.
func TestDaemonReportLongPoll(t *testing.T) {
	s, ts := deptServer(t)

	cur := s.sv.Current().Version
	// Already-newer version: immediate.
	resp, err := http.Get(fmt.Sprintf("%s/v1/report?version=%d", ts.URL, cur-1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version=%d: %d, want 200", cur-1, resp.StatusCode)
	}
	// Timeout path.
	resp, err = http.Get(fmt.Sprintf("%s/v1/report?version=%d&timeout_ms=100", ts.URL, cur))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("timeout poll: %d, want 204", resp.StatusCode)
	}
	// Unblocked by a delta posted mid-poll.
	done := make(chan reportPayload, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/report?version=%d", ts.URL, cur))
		if err != nil {
			done <- reportPayload{}
			return
		}
		defer resp.Body.Close()
		var rep reportPayload
		json.NewDecoder(resp.Body).Decode(&rep)
		done <- rep
	}()
	time.Sleep(50 * time.Millisecond)
	resp, err = http.Post(ts.URL+"/v1/delta", "application/json",
		strings.NewReader(`{"elem":"asw0","op":"insert","mac":"02:00:aa:00:00:09","port":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case rep := <-done:
		if rep.Version != cur+1 {
			t.Fatalf("long poll returned version %d, want %d", rep.Version, cur+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never unblocked")
	}
}

// TestDaemonWatchPoll covers the JSON long-poll watch mode, including the
// beyond-the-ring resync signal.
func TestDaemonWatchPoll(t *testing.T) {
	s, ts := deptServer(t)

	// Nothing new: 204 after the short timeout.
	resp, err := http.Get(ts.URL + "/v1/watch?poll=1&timeout_ms=100")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("idle poll: %d, want 204", resp.StatusCode)
	}

	// Deleting asw0's upstream (ASA) MAC entry cuts its hosts off from every
	// monitored target — a guaranteed reachability flip; watch from the
	// pre-delta version must observe the transition.
	since := s.sv.Current().Version
	resp, err = http.Post(ts.URL+"/v1/delta", "application/json",
		strings.NewReader(`{"elem":"asw0","op":"delete","mac":"02:aa:00:00:00:01"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/watch?poll=1&since=%d", ts.URL, since))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch poll: %d, want 200", resp.StatusCode)
	}
	var out struct {
		Events []symnet.VersionEvent `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != 1 || out.Events[0].Version != since+1 {
		t.Fatalf("events: %+v, want one at version %d", out.Events, since+1)
	}
	if len(out.Events[0].Transitions) == 0 {
		t.Fatal("MAC delete produced no transitions")
	}
	tr := out.Events[0].Transitions[0]
	if tr.From != "Delivered" || tr.To != "Failed" || tr.Version != since+1 {
		t.Fatalf("transition: %+v", tr)
	}

	// A client claiming a version beyond the ring must be told to resync.
	resp, err = http.Get(ts.URL + "/v1/watch?poll=1&since=99999&timeout_ms=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// since > current: nothing retained that new, but history "to" it is
	// incomplete only when the ring has rolled; with a fresh ring this waits
	// then 204s.
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusGone {
		t.Fatalf("far-future poll: %d", resp.StatusCode)
	}
}

// TestDaemonWatchSSE: the default watch mode streams version events with
// transitions as SSE frames.
func TestDaemonWatchSSE(t *testing.T) {
	s, ts := deptServer(t)

	since := s.sv.Current().Version
	resp, err := http.Get(fmt.Sprintf("%s/v1/watch?since=%d", ts.URL, since))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	post, err := http.Post(ts.URL+"/v1/delta", "application/json",
		strings.NewReader(`{"elem":"asw1","op":"delete","mac":"02:aa:00:00:00:01"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()

	type frame struct {
		event string
		data  string
	}
	framec := make(chan frame, 4)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var f frame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			case line == "" && f.data != "":
				framec <- f
				f = frame{}
			}
		}
	}()
	select {
	case f := <-framec:
		if f.event != "version" {
			t.Fatalf("event %q, want version", f.event)
		}
		var ev symnet.VersionEvent
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame data %q: %v", f.data, err)
		}
		if ev.Version != since+1 || len(ev.Transitions) == 0 {
			t.Fatalf("SSE event: %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE frame within 5s")
	}
}

// TestDaemonSnapshotRoundTrip: export, mutate, restore, and verify the
// report reverts while the version keeps climbing.
func TestDaemonSnapshotRoundTrip(t *testing.T) {
	_, ts := deptServer(t)

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	snap := get("/v1/snapshot")
	var before reportPayload
	if err := json.Unmarshal(get("/v1/report"), &before); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/delta", "application/json",
		strings.NewReader(`{"elem":"asw0","op":"delete","mac":"02:00:00:00:00:02"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/v1/snapshot", "application/json", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("restore: %d: %s", resp.StatusCode, b)
	}
	var restored struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	if restored.Version <= before.Version+1 {
		t.Fatalf("restored version %d did not climb past %d", restored.Version, before.Version+1)
	}
	var after reportPayload
	if err := json.Unmarshal(get("/v1/report"), &after); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Reachable, before.Reachable) || !reflect.DeepEqual(after.PathCount, before.PathCount) {
		t.Fatal("restored report does not match the snapshotted state")
	}

	// Malformed snapshot: 400 envelope.
	resp, err = http.Post(ts.URL+"/v1/snapshot", "application/json", strings.NewReader(`{"schema":99}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad snapshot: %d, want 400", resp.StatusCode)
	}
}

// TestDaemonSnapshotRefusedWhole posts snapshots the daemon must refuse — a
// 40-bit route, which would panic the absorber goroutine and kill the
// process if it reached the LPM compiler, and one whose tables are half
// valid — and requires a 4xx for each, after which GET /v1/report still
// answers with the version and matrix it had before and GET /v1/snapshot
// with the same tables.
func TestDaemonSnapshotRefusedWhole(t *testing.T) {
	s, _ := newTestServer(t, "backbone")
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", path, resp.StatusCode, b)
		}
		return b
	}
	report := func() reportPayload {
		t.Helper()
		var rep reportPayload
		if err := json.Unmarshal(get("/v1/report"), &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	before := report()
	snap := get("/v1/snapshot")
	var names []string
	for _, tc := range []struct {
		name string
		code int
		edit func(st *symnet.ServingState)
	}{
		{"40-bit route", http.StatusBadRequest, func(st *symnet.ServingState) {
			st.Routers[names[0]] = tables.FIB{{Prefix: 0x0A000000, Len: 40, Port: 0}}
		}},
		{"half-valid tables", http.StatusUnprocessableEntity, func(st *symnet.ServingState) {
			st.Routers[names[0]] = st.Routers[names[0]][:1]
			st.Routers[names[1]] = tables.FIB{}
		}},
	} {
		var st symnet.ServingState
		if err := json.Unmarshal(snap, &st); err != nil {
			t.Fatal(err)
		}
		names = slices.Sorted(maps.Keys(st.Routers))
		tc.edit(&st)
		var body bytes.Buffer
		if _, err := st.WriteTo(&body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", &body)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: POST /v1/snapshot = %d (%s), want %d", tc.name, resp.StatusCode, msg, tc.code)
		}
		after := report()
		if after.Version != before.Version || !reflect.DeepEqual(after.Reachable, before.Reachable) || !reflect.DeepEqual(after.PathCount, before.PathCount) {
			t.Fatalf("%s: the refused snapshot moved the report from version %d to %d", tc.name, before.Version, after.Version)
		}
		if !bytes.Equal(get("/v1/snapshot"), snap) {
			t.Fatalf("%s: the refused snapshot changed the resident tables", tc.name)
		}
	}
}

// TestDaemonConcurrentChurn is the serving-layer race pin: N goroutines
// hammer GET /v1/report and the watch poll endpoint while a delta stream
// posts concurrently. Reports must be internally consistent (shape intact,
// version monotone per client) at every observation. Run with -race.
func TestDaemonConcurrentChurn(t *testing.T) {
	s, ts := deptServer(t)

	// Alternate insert and delete rounds so every absorption pass dirties
	// real sources (a same-batch insert+delete pair would cancel to a noop).
	round := func(i int) string {
		op, port := "insert", fmt.Sprintf(`,"port":%d`, 1)
		if i%2 == 1 {
			op, port = "delete", ""
		}
		return fmt.Sprintf(`{"elem":"asw2","op":"%s","mac":"02:00:02:00:66:11"%s}`, op, port) + "\n" +
			fmt.Sprintf(`{"elem":"asw3","op":"%s","mac":"02:00:03:00:66:11"%s}`, op, port) + "\n"
	}
	const rounds = 4
	const perRound = 2
	stop := make(chan struct{})
	fail := make(chan string, 16)
	var wg sync.WaitGroup

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/report")
				if err != nil {
					fail <- err.Error()
					return
				}
				var rep reportPayload
				err = json.NewDecoder(resp.Body).Decode(&rep)
				resp.Body.Close()
				if err != nil {
					fail <- err.Error()
					return
				}
				if rep.Version < last {
					fail <- fmt.Sprintf("report version went backwards: %d after %d", rep.Version, last)
					return
				}
				last = rep.Version
				if len(rep.Reachable) != len(rep.Sources) || rep.Cells != len(rep.Sources)*len(rep.Targets) {
					fail <- fmt.Sprintf("inconsistent report at version %d", rep.Version)
					return
				}
				for _, row := range rep.Reachable {
					if len(row) != len(rep.Targets) {
						fail <- fmt.Sprintf("ragged matrix at version %d", rep.Version)
						return
					}
				}
				// Briefly yield so the readers contend without starving the
				// absorber's re-verification work.
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// One watch long-poller asserting monotone event versions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		since := s.sv.Current().Version
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(fmt.Sprintf("%s/v1/watch?poll=1&since=%d&timeout_ms=200", ts.URL, since))
			if err != nil {
				fail <- err.Error()
				return
			}
			if resp.StatusCode == http.StatusNoContent {
				resp.Body.Close()
				continue
			}
			var out struct {
				Events []symnet.VersionEvent `json:"events"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				fail <- err.Error()
				return
			}
			for _, ev := range out.Events {
				if ev.Version <= since {
					fail <- fmt.Sprintf("watch replayed version %d at since=%d", ev.Version, since)
					return
				}
				since = ev.Version
			}
		}
	}()

	startV := s.sv.Current().Version
	for i := 0; i < rounds; i++ {
		// One stream per round: the round's deltas coalesce into one pass.
		resp, err := http.Post(ts.URL+"/v1/delta", "application/json", strings.NewReader(round(i)))
		if err != nil {
			t.Fatal(err)
		}
		var out deltaResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || out.Applied != perRound {
			t.Fatalf("delta round %d: status=%d applied=%d err=%v", i, resp.StatusCode, out.Applied, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if got := s.sv.Current().Version; got != startV+rounds {
		t.Fatalf("final version %d, want %d (+1 per round)", got, startV+rounds)
	}
}
