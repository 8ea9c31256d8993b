package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
)

// publishOnce guards the expvar name: expvar.Publish panics on duplicate
// names, and tests (or a CLI that restarts its server) may call ServeDebug
// more than once per process.
var (
	publishMu  sync.Mutex
	published  bool
	currentReg *Registry
)

// ServeDebug starts an HTTP server on addr exposing the registry and the
// process's profiling surface for live inspection of long runs:
//
//	/debug/vars         expvar, including "symnet_metrics" (this registry's
//	                    live snapshot, re-captured per request)
//	/debug/pprof/       CPU/heap/goroutine/block profiles (net/http/pprof)
//
// It returns the bound address (so addr may use port 0) after the listener
// is live; the server itself runs on a background goroutine for the rest of
// the process. Metrics are observational only — serving them cannot perturb
// results — but the endpoint is unauthenticated, so bind loopback unless
// the network is trusted.
// SetDebugRegistry swaps the registry behind the expvar endpoint. Worker
// processes call it when their registry is created after the debug server is
// already listening (symworker parses -debug-addr before a session learns
// from its batch frame whether metrics are on). Harmless when no server is
// running.
func SetDebugRegistry(reg *Registry) {
	publishMu.Lock()
	currentReg = reg
	publishMu.Unlock()
}

func ServeDebug(addr string, reg *Registry) (string, error) {
	publishMu.Lock()
	currentReg = reg
	if !published {
		published = true
		expvar.Publish("symnet_metrics", expvar.Func(func() any {
			publishMu.Lock()
			r := currentReg
			publishMu.Unlock()
			return r.Snapshot()
		}))
	}
	publishMu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: debug server: %w", err)
	}
	go http.Serve(ln, nil) //nolint:errcheck // dies with the process
	return ln.Addr().String(), nil
}
