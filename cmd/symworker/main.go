// Command symworker is the distributed-verification worker: a fleet member,
// and the only kind there is. `symworker -listen host:port` binds the
// address, prints the bound address on stdout (useful with :0), and serves
// one session of the internal/dist frame protocol (a stream of gob frames;
// gob is self-delimiting, there are no explicit length prefixes) per
// accepted connection until killed. Coordinators name it in
// dist.Config.Workers; a session's installed network lives as long as its
// connection, so a coordinator that redials ships the full setup again. The
// protocol is versioned: a coordinator and a worker built from
// different protocol versions refuse each other at the handshake.
//
//	runner, err := dist.NewRunner(dist.Config{
//		Workers: []string{"10.0.0.2:9090", "10.0.0.3:9090"},
//	})
//	results := runner.RunBatch(net, jobs)
//
// Coordinators spawn no workers of their own: on one machine the in-process
// scheduler (dist.Config.WorkersPerProc) is faster than any local fleet, so
// a member is started once per machine and dialled. Without -listen,
// symworker prints its usage and exits 2.
//
// With -debug-addr the worker serves /debug/pprof and /debug/vars for live
// inspection of a long shard; the expvar metrics appear once the coordinator
// enables metrics collection in the batch frame (pprof works regardless).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"symnet/internal/dist"
	"symnet/internal/obs"

	// Worker processes decode SEFL For-loops by registry reference; every
	// model package that registers bodies must be linked in (a network that
	// references an unlinked body fails to decode with a pointed error).
	_ "symnet/internal/asa"
	_ "symnet/internal/models"
)

func main() {
	listen := flag.String("listen", "", "serve the frame protocol over TCP on this address (host:port; :0 picks a port, printed on stdout); required")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address for the worker's lifetime")
	flag.Parse()
	if *listen == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *debugAddr != "" {
		bound, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "symworker:", err)
			os.Exit(1)
		}
		// The worker swaps the live registry in once a batch enables metrics.
		fmt.Fprintln(os.Stderr, "symworker: debug server on http://"+bound+"/debug/vars")
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symworker:", err)
		os.Exit(1)
	}
	fmt.Println(ln.Addr())
	if err := dist.ServeListener(ln); err != nil {
		fmt.Fprintln(os.Stderr, "symworker:", err)
		os.Exit(1)
	}
}
