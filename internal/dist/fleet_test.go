package dist_test

// Fleet-level property tests: the TCP transport, the fleet's shape and crash
// re-dispatch must all be invisible in the bytes — RunBatch output equals
// the in-process engine's for every transport, shard map and crash pattern.

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"symnet/internal/dist"
)

// startResidentWorker serves the TCP transport in-process on a loopback
// listener — one "machine" of the fleet as far as the coordinator can tell.
func startResidentWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go dist.ServeListener(ln)
	return ln.Addr().String()
}

// startWorkerProcess re-executes the test binary as a `listen`-mode fleet
// member (a real separate process whose death is a real machine death),
// returning the address it bound.
func startWorkerProcess(t *testing.T, extraEnv ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "SYMNET_DIST_WORKER=listen=127.0.0.1:0")
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading worker address: %v", err)
	}
	return strings.TrimSpace(line)
}

// TestTCPFleetByteIdentical is the transport half of the determinism
// property: TCP fleets of one, two and three members — every shard map the
// batch sizes here produce — give the exact bytes of the in-process engine on
// all three datasets, and so does a batch smaller than the fleet: one job over
// three members leaves two shards empty, and those members, sent a batch and
// its end and nothing between, must still answer done.
func TestTCPFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	for _, bc := range batchCases(t) {
		t.Run(bc.name, func(t *testing.T) {
			addrs := []string{startResidentWorker(t), startResidentWorker(t), startResidentWorker(t)}
			batches := [][]dist.Job{bc.jobs, bc.jobs[:1]}
			want := [][]byte{reference(t, bc.net, batches[0]), reference(t, bc.net, batches[1])}
			for size := 1; size <= len(addrs); size++ {
				pool, err := dist.NewPool(dist.Config{Workers: addrs[:size], WorkersPerProc: 2})
				if err != nil {
					t.Fatal(err)
				}
				for i, jobs := range batches {
					if got := canonical(t, pool.RunBatch(bc.net, jobs)); !bytes.Equal(got, want[i]) {
						t.Errorf("%d members, %d jobs: TCP fleet output differs from in-process run", size, len(jobs))
					}
				}
				pool.Close()
			}
		})
	}
}

// TestCrashRedispatchZeroLoss injects a one-shot crash (the first worker to
// reach the named job dies before reporting it) into a fork/exec fleet and
// requires zero job loss and byte-identical output: the dead worker's jobs
// re-dispatch to survivors inside the default retry budget.
func TestCrashRedispatchZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	bc := batchCases(t)[0] // department
	want := reference(t, bc.net, bc.jobs)
	marker := filepath.Join(t.TempDir(), "crash-once")
	t.Setenv("SYMNET_DIST_TEST_EXIT_ON", bc.jobs[1].Name)
	t.Setenv("SYMNET_DIST_TEST_EXIT_ONCE", marker)
	out := runVia(t, bc.net, bc.jobs, dist.Config{Procs: 3, WorkersPerProc: 1})
	if got := canonical(t, out); !bytes.Equal(got, want) {
		for i, r := range out {
			if r.Err != nil {
				t.Logf("job %d (%s): %v", i, r.Name, r.Err)
			}
		}
		t.Fatal("crash-injected fleet output differs from in-process run (job lost or altered)")
	}
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("crash marker absent — the fault injection never fired: %v", err)
	}
}

// TestTCPWorkerDeathRedispatch kills one of two TCP fleet members — a
// separate OS process, listener and all — mid-batch and requires the
// survivor to absorb its jobs with byte-identical output.
func TestTCPWorkerDeathRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	bc := batchCases(t)[0] // department
	marker := filepath.Join(t.TempDir(), "crash-once")
	crashy := startWorkerProcess(t,
		"SYMNET_DIST_TEST_EXIT_ON=*",
		"SYMNET_DIST_TEST_EXIT_ONCE="+marker,
	)
	healthy := startResidentWorker(t)
	want := reference(t, bc.net, bc.jobs)
	out := runVia(t, bc.net, bc.jobs, dist.Config{
		Workers: []string{crashy, healthy}, WorkersPerProc: 1,
	})
	if got := canonical(t, out); !bytes.Equal(got, want) {
		for i, r := range out {
			if r.Err != nil {
				t.Logf("job %d (%s): %v", i, r.Name, r.Err)
			}
		}
		t.Fatal("fleet output after worker death differs from in-process run")
	}
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("crash marker absent — the worker never died: %v", err)
	}
}

// TestDeadFleetMemberTolerated pins the degraded-fleet contract: a TCP
// address that refuses the dial joins the pool dead instead of failing
// construction, batches shard over the survivor byte-identically (two in a
// row — each batch start retries the dead member's redial and must shrug off
// the refusal), and only an entirely unreachable fleet is an error.
func TestDeadFleetMemberTolerated(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	// Bind-then-close yields an address that deterministically refuses.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	bc := batchCases(t)[0] // department
	want := reference(t, bc.net, bc.jobs)
	pool, err := dist.NewPool(dist.Config{
		Workers: []string{dead, startResidentWorker(t)}, WorkersPerProc: 2,
	})
	if err != nil {
		t.Fatalf("NewPool with one dead member: %v", err)
	}
	defer pool.Close()
	for batch := 0; batch < 2; batch++ {
		out := pool.RunBatch(bc.net, bc.jobs)
		if got := canonical(t, out); !bytes.Equal(got, want) {
			for i, r := range out {
				if r.Err != nil {
					t.Logf("job %d (%s): %v", i, r.Name, r.Err)
				}
			}
			t.Fatalf("batch %d: degraded fleet output differs from in-process run", batch)
		}
	}

	if _, err := dist.NewPool(dist.Config{Workers: []string{dead}}); err == nil {
		t.Fatal("NewPool with no reachable member: want error, got nil")
	} else if !strings.Contains(err.Error(), "no fleet member reachable") {
		t.Fatalf("NewPool all-dead error = %q, want mention of no reachable member", err)
	}
}
