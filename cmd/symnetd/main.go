// Command symnetd is a long-lived incremental verification daemon: it holds
// a compiled network and its all-pairs reachability report resident, accepts
// rule deltas over HTTP, and re-verifies only what each delta can affect.
// This is the deployment mode the paper's static-analysis speed enables:
// verification keeping pace with rule churn instead of recomputing from
// scratch per control-plane event.
//
//	symnetd -network department -listen 127.0.0.1:7080
//	symnetd -network backbone -quick -debug-addr 127.0.0.1:7081
//
// The daemon is flags, two named topologies and process lifecycle. The
// serving stack is the library's: symnet.Compile -> Session.Serve stands up
// the single-writer absorber (queued deltas coalesce into one patch pass and
// one re-verification per batch; readers traverse immutable published report
// versions lock-free), and internal/httpapi serves the /v1 surface over the
// resulting handle — see that package for the endpoints, the error envelope
// and the body caps. Request headers must arrive within readHeaderTimeout.
//
// -state FILE restores a snapshot at startup (if the file exists) and
// persists one on SIGINT/SIGTERM shutdown, atomically: the previous snapshot
// survives a crash mid-write, and intake stops before the snapshot is taken,
// so every delta the daemon acknowledged is in it. -debug-addr attaches a
// metrics registry and serves it as expvar under /debug/vars (churn.batch_ns,
// churn.version, churn.queue.depth, churn.watch.subscribers, the engine's
// core.* counters, solver.satcache.*, ...) plus net/http/pprof.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"symnet"
	"symnet/internal/datasets"
	"symnet/internal/httpapi"
	"symnet/internal/obs"
	"symnet/internal/sefl"
)

const readHeaderTimeout = 10 * time.Second

// buildService describes the resident workload for a named topology: the
// network, the monitored all-pairs query and the tables that receive deltas.
// The injected packet is destination-constrained (one monitored zone / the
// department's first IP hop) so deltas stay localized — the regime
// incremental serving is built for.
func buildService(network string, quick, heavy bool) (*symnet.Network, symnet.ServeConfig, string, error) {
	var cfg symnet.ServeConfig
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
		cfg.Routers = b.FIBs
		cfg.Sources, cfg.Targets = b.AllPairs()
		cfg.Packet = sefl.Seq(
			sefl.NewIPPacket(),
			sefl.Constrain{C: sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: sefl.IPToNumber("10.0.0.0"), Len: 16}},
		)
		return b.Net, cfg, fmt.Sprintf("stanford backbone (%d zones, %d routes/zone, %d rules)", zones, perZone, b.Rules), nil
	case "department":
		dc := datasets.DefaultDepartment()
		if quick {
			dc = datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 11}
		}
		if heavy {
			dc = datasets.HeavyDepartment()
		}
		d := datasets.NewDepartment(dc)
		cfg.Routers, cfg.Switches = d.FIBs, d.MACTables
		cfg.Sources, cfg.Targets = d.AllPairs()
		cfg.Packet = sefl.Seq(
			sefl.NewTCPPacket(),
			sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(sefl.MACToNumber(d.ASAMac), sefl.MACWidth))},
		)
		return d.Net, cfg, fmt.Sprintf("department (%d access switches, %d MAC entries, %d routes)",
			dc.NumAccessSwitches, d.MACEntries, d.RouteEntries), nil
	}
	return nil, cfg, "", fmt.Errorf("unknown -network %q (want department|backbone)", network)
}

// serve stands the stack up the library's way. -workers <= 0 means all
// cores, which a Session spells -1 (its 0 is sequential).
func serve(topo *symnet.Network, cfg symnet.ServeConfig, workers int, o *obs.Obs) (*symnet.Serving, error) {
	if workers <= 0 {
		workers = -1
	}
	sess, err := symnet.Compile(topo, symnet.Options{Workers: workers, Obs: o})
	if err != nil {
		return nil, err
	}
	return sess.Serve(cfg)
}

// restoreFile restores the snapshot at path into sv and returns the version
// it published; a missing file is not an error (nil report). A file that does
// not decode leaves sv as it was.
func restoreFile(sv *symnet.Serving, path string) (*symnet.PublishedReport, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := symnet.ReadServingState(f)
	if err != nil {
		return nil, err
	}
	return sv.Restore(context.Background(), st)
}

// saveState writes the snapshot to path+".tmp", syncs it and renames it into
// place, so a crash mid-write leaves the previous snapshot intact.
func saveState(path string, st *symnet.ServingState) error {
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

// daemon is a serving handle behind its HTTP listener.
type daemon struct {
	sv   *symnet.Serving
	srv  *http.Server
	addr string
	// stopIntake cancels every request context: long-polls and SSE streams
	// return, so Shutdown is not held up by them.
	stopIntake context.CancelFunc
	// errc reports the listener failing underneath the daemon.
	errc chan error
}

// start binds addr and serves the /v1 surface over sv in the background.
func start(sv *symnet.Serving, addr string) (*daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	d := &daemon{sv: sv, addr: ln.Addr().String(), stopIntake: stop, errc: make(chan error, 1)}
	d.srv = &http.Server{
		Handler:           httpapi.Handler(sv),
		ReadHeaderTimeout: readHeaderTimeout,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	go func() { d.errc <- d.srv.Serve(ln) }()
	return d, nil
}

// shutdown stops intake first and snapshots second, so a delta that got its
// 200 is always in the -state file: once Shutdown returns no request is in
// flight and none can arrive, and Export queues behind whatever the absorber
// still holds.
func (d *daemon) shutdown(stateFile string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.stopIntake()
	if err := d.srv.Shutdown(ctx); err != nil {
		log.Printf("symnetd: shutdown: %v", err)
	}
	if stateFile != "" {
		if st, err := d.sv.Export(ctx); err != nil {
			log.Printf("symnetd: export on shutdown: %v", err)
		} else if err := saveState(stateFile, st); err != nil {
			log.Printf("symnetd: write %s: %v", stateFile, err)
		} else {
			log.Printf("symnetd: snapshot saved to %s (version %d)", stateFile, st.Version)
		}
	}
	d.sv.Close()
}

func main() {
	network := flag.String("network", "department", "resident topology: department|backbone")
	quick := flag.Bool("quick", false, "small topology (CI smoke)")
	heavy := flag.Bool("heavy", false, "paper-scale-plus topology")
	workers := flag.Int("workers", 0, "re-verification worker pool (0: GOMAXPROCS)")
	distWorkers := flag.String("dist-workers", "", "comma-separated host:port list of resident TCP workers (symworker -listen); verification passes shard across the fleet")
	listen := flag.String("listen", "127.0.0.1:7080", "HTTP listen address")
	debugAddr := flag.String("debug-addr", "", "serve expvar metrics and pprof on this address")
	stateFile := flag.String("state", "", "snapshot file: restored at startup if present, written on shutdown")
	flag.Parse()

	var o *obs.Obs
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		addr, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			log.Fatalf("symnetd: debug server: %v", err)
		}
		log.Printf("symnetd: metrics at http://%s/debug/vars", addr)
		o = obs.New(reg, nil)
	}

	topo, cfg, desc, err := buildService(*network, *quick, *heavy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symnetd:", err)
		os.Exit(2)
	}
	if *distWorkers != "" {
		cfg.DistWorkers = strings.Split(*distWorkers, ",")
	}
	log.Printf("symnetd: compiling %s", desc)
	t0 := time.Now()
	sv, err := serve(topo, cfg, *workers, o)
	if err != nil {
		log.Fatalf("symnetd: %v", err)
	}
	log.Printf("symnetd: resident report ready in %v (%d cells)",
		time.Since(t0).Round(time.Millisecond), len(cfg.Sources)*len(cfg.Targets))

	if *stateFile != "" {
		pub, err := restoreFile(sv, *stateFile)
		if err != nil {
			log.Fatalf("symnetd: -state %s: %v", *stateFile, err)
		}
		if pub != nil {
			log.Printf("symnetd: restored snapshot %s at version %d", *stateFile, pub.Version)
		}
	}

	d, err := start(sv, *listen)
	if err != nil {
		log.Fatalf("symnetd: %v", err)
	}
	log.Printf("symnetd: listening on %s", d.addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-d.errc:
		log.Fatalf("symnetd: %v", err)
	case sig := <-sigc:
		log.Printf("symnetd: %v: shutting down", sig)
	}
	d.shutdown(*stateFile)
}
