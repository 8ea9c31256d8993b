package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"symnet"
	"symnet/internal/obs"
	"symnet/internal/sefl"
)

// quickBackbone stands the quick backbone up the way main does.
func quickBackbone(t *testing.T, workers int, o *obs.Obs) *symnet.Serving {
	t.Helper()
	topo, cfg, _, err := buildService("backbone", true, false)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := serve(topo, cfg, workers, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Close)
	return sv
}

// TestWorkersFlagWidth pins -workers across the move onto Session.Serve: 0
// (the default) is still all cores, not the Session's sequential 0. The width
// is read off the scheduler's per-worker instruments, as
// TestSessionWorkerSemantics does; the quick backbone has four sources, so the
// job count does not cap it below GOMAXPROCS (pinned to 4 here).
func TestWorkersFlagWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ flag, width int }{{0, 4}, {-1, 4}, {1, 1}, {3, 3}} {
		reg := obs.NewRegistry()
		quickBackbone(t, tc.flag, obs.New(reg, nil))
		width := 0
		for name := range reg.Snapshot().Hists {
			if strings.HasPrefix(name, "sched.w") && strings.HasSuffix(name, ".task_ns") {
				width++
			}
		}
		if width != tc.width {
			t.Errorf("-workers %d: scheduler width %d, want %d", tc.flag, width, tc.width)
		}
	}
}

// TestSaveStateReplacesAtomically: saveState goes through a temp file in the
// target's directory and a rename, so the previous snapshot is replaced whole
// and nothing is left beside it.
func TestSaveStateReplacesAtomically(t *testing.T) {
	sv := quickBackbone(t, 2, nil)
	st, err := sv.Export(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte("previous snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := saveState(path, st); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := symnet.ReadServingState(f)
	if err != nil || got.Version != st.Version {
		t.Fatalf("state read back: %+v, %v; want version %d", got, err, st.Version)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("saveState left %d entries in the directory, want only the snapshot", len(ents))
	}
	if err := saveState(filepath.Join(dir, "missing", "state.json"), st); err == nil {
		t.Fatal("saveState into a missing directory succeeded")
	}
}

// TestRestoreFile is the start-up half of -state: a missing file is a no-op,
// a torn (truncated) file is an error that leaves the resident report alone,
// and a valid file publishes a strictly larger version carrying its rules.
func TestRestoreFile(t *testing.T) {
	ctx := context.Background()
	donor := quickBackbone(t, 2, nil)
	reroute := symnet.Delta{Elem: "zone1", Op: symnet.OpInsert, Prefix: "10.1.77.0/24", Port: 2}
	if rep, err := donor.Apply(ctx, reroute); err != nil || rep.Applied != 1 {
		t.Fatalf("donor apply: %+v, %v", rep, err)
	}
	st, err := donor.Export(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	valid := filepath.Join(dir, "state.json")
	if err := saveState(valid, st); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	sv := quickBackbone(t, 2, nil)
	before := sv.Current()
	if pub, err := restoreFile(sv, filepath.Join(dir, "absent.json")); pub != nil || err != nil {
		t.Fatalf("missing file: %v, %v; want a no-op", pub, err)
	}
	if pub, err := restoreFile(sv, torn); pub != nil || err == nil {
		t.Fatalf("torn file: %v, %v; want an error", pub, err)
	}
	if sv.Current() != before {
		t.Fatalf("a failed restore published version %d over %d", sv.Current().Version, before.Version)
	}
	pub, err := restoreFile(sv, valid)
	if err != nil {
		t.Fatal(err)
	}
	if pub.Version <= before.Version || pub.Version <= st.Version || sv.Current() != pub {
		t.Fatalf("restore published version %d (current %d), want past %d and the snapshot's %d",
			pub.Version, sv.Current().Version, before.Version, st.Version)
	}
	// The snapshot's rule came along: inserting it again is a duplicate.
	if rep, err := sv.Apply(ctx, reroute); err != nil || rep.Applied != 0 {
		t.Fatalf("re-inserting the snapshot's route: %+v, %v; want it rejected as a duplicate", rep, err)
	}
}

// TestShutdownKeepsAcknowledgedDeltas: posters insert fresh routes as fast as
// the daemon answers while it shuts down; every delta that got its 200 must be
// in the snapshot shutdown wrote. (Exporting before intake stops loses the
// ones acknowledged between the export and the close.)
func TestShutdownKeepsAcknowledgedDeltas(t *testing.T) {
	d, err := start(quickBackbone(t, 2, nil), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		acked []string
		wg    sync.WaitGroup
	)
	const posters = 4
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// zone1 owns 10.1.0.0/24 to 10.1.23.0/24; the third octet is
			// split between the posters so every insert is fresh.
			for i := 24 + p; i < 256; i += posters {
				prefix := fmt.Sprintf("10.1.%d.0/24", i)
				body := fmt.Sprintf(`{"elem":"zone1","op":"insert","prefix":%q,"port":2}`+"\n", prefix)
				resp, err := http.Post("http://"+d.addr+"/v1/delta", "application/json", strings.NewReader(body))
				if err != nil {
					return // the listener is gone
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return // cut off mid-shutdown: not acknowledged
				}
				mu.Lock()
				acked = append(acked, prefix)
				mu.Unlock()
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 2*posters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d deltas acknowledged in 10s", n)
		}
	}
	path := filepath.Join(t.TempDir(), "state.json")
	d.shutdown(path)
	wg.Wait()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := symnet.ReadServingState(f)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, r := range st.Routers["zone1"] {
		have[fmt.Sprintf("%s/%d", sefl.NumberToIP(r.Prefix), r.Len)] = true
	}
	for _, prefix := range acked {
		if !have[prefix] {
			t.Errorf("delta inserting %s was acknowledged but is not in the snapshot (%d acknowledged)", prefix, len(acked))
		}
	}
}
