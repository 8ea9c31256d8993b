package dist

// TCP transport: the gob-frame protocol carried over sockets, so workers can
// live on other machines. `symworker -listen addr` serves sessions via
// ServeListener; a coordinator dials Config.Workers addresses. Deadlines
// cover only the connection-scoped exchanges (dial, handshake) — mid-batch
// reads block indefinitely, since a symbolic-execution job has no useful
// upper bound; OS keepalives detect a dead peer instead.

import (
	"fmt"
	"net"
	"os"
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
// each accepted connection speaks one session of the frame protocol, and the
// network it installs lives exactly as long as the connection — a
// coordinator that redials starts over with a full setup. cmd/symworker calls
// it under -listen.
func ServeListener(ln net.Listener) error {
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
			if err := serveSession(newConn(nc, nc), nc); err != nil {
				fmt.Fprintln(os.Stderr, "symnet-dist-worker:", err)
			}
		}(nc)
	}
}
