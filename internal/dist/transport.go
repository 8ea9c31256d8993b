package dist

// TCP transport: the gob-frame protocol carried over sockets, so workers can
// live on other machines. `symworker -listen addr` serves sessions via
// ServeListener; a coordinator dials Config.Workers addresses. Deadlines cover only the connection-scoped
// exchanges (dial, handshake) — mid-batch reads block indefinitely, since a
// symbolic-execution job has no useful upper bound; OS keepalives detect a
// dead peer instead.

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

const (
	// dialTimeout bounds one connection attempt; dialWorker retries inside
	// dialRetryWindow so a coordinator can start before its workers finish
	// binding their listeners (CI starts both concurrently).
	dialTimeout     = 10 * time.Second
	dialRetryWindow = 5 * time.Second
	dialRetryPause  = 200 * time.Millisecond
	// handshakeTimeout bounds the hello/helloAck exchange on both sides: a
	// peer that connects and goes silent is cut loose instead of pinning a
	// session goroutine (worker side) or the pool constructor (coordinator).
	handshakeTimeout = 10 * time.Second
	// keepalivePeriod configures TCP keepalives so half-open connections
	// (peer machine died) eventually error out of blocking reads.
	keepalivePeriod = 30 * time.Second
)

// dialWorker connects to one remote worker address, retrying refused
// connections until the window elapses. Pool construction passes
// dialRetryWindow (workers may still be binding when the coordinator
// starts); redials of a worker that just dropped pass 0 — one attempt, fail
// fast, let the crash path re-dispatch.
func dialWorker(addr string, retryWindow time.Duration) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout, KeepAlive: keepalivePeriod}
	deadline := time.Now().Add(retryWindow)
	for {
		nc, err := d.Dial("tcp", addr)
		if err == nil {
			return nc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: dial worker %s: %w", addr, err)
		}
		time.Sleep(dialRetryPause)
	}
}

// ServeListener serves worker sessions from a listener until Accept fails:
// each accepted connection speaks one session of the frame protocol, and
// sessions whose connection drops mid-run park their installed state in a
// small resident cache so the same coordinator reconnecting gets delta setup
// instead of a full re-encode. cmd/symworker calls it under -listen.
func ServeListener(ln net.Listener) error {
	cache := newResidentCache(residentCacheSize)
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetKeepAlive(true)
			tc.SetKeepAlivePeriod(keepalivePeriod)
		}
		go func(nc net.Conn) {
			defer nc.Close()
			if err := serveSession(newConn(nc, nc), nc, cache); err != nil {
				fmt.Fprintln(os.Stderr, "symnet-dist-worker:", err)
			}
		}(nc)
	}
}

// residentCacheSize bounds how many broken sessions' states a worker parks
// for reconnects; beyond it the oldest entry is dropped (its coordinator
// will get a full setup on reconnect, which is always correct).
const residentCacheSize = 4

// residentCache parks state from dropped connections, keyed by run ID.
type residentCache struct {
	mu    sync.Mutex
	cap   int
	order []string
	m     map[string]*workerState
}

func newResidentCache(capacity int) *residentCache {
	return &residentCache{cap: capacity, m: make(map[string]*workerState)}
}

// take removes and returns the state parked for a run (nil if none) —
// removal makes the handoff exclusive even if the same coordinator redials
// twice concurrently.
func (rc *residentCache) take(runID string) *workerState {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	st := rc.m[runID]
	if st != nil {
		delete(rc.m, runID)
		for i, id := range rc.order {
			if id == runID {
				rc.order = append(rc.order[:i], rc.order[i+1:]...)
				break
			}
		}
	}
	return st
}

// park stores a broken session's state for a future reconnect, evicting the
// oldest entry over capacity.
func (rc *residentCache) park(runID string, st *workerState) {
	if rc == nil || st == nil || st.net == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, dup := rc.m[runID]; !dup {
		rc.order = append(rc.order, runID)
	}
	rc.m[runID] = st
	for len(rc.order) > rc.cap {
		delete(rc.m, rc.order[0])
		rc.order = rc.order[1:]
	}
}
