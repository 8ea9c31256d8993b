package main

import (
	"syscall"
	"time"
)

// memProbe is a fixed piece of work, random read-modify-writes over 16 MiB,
// timed between passes. The issue this harness was built for said not to
// build a calibration kernel; NOISE.md has the measurements that overruled
// it. This box slows down for minutes at a time by 20 to 60 %, a lower
// decile taken inside a 16 s run sits inside one such phase, and the driver
// rejects a benchmark whose runs spread that far. An arithmetic loop timed
// beside the operations follows them in some phases and not in others; this
// loop followed them in all: dividing by it brought the spread of op_ms
// across runs from 15-51 % to 4-14 %. So a time is reported as the measured
// time divided by how slow the probe ran next to it, times probeQuiet. The memory is mapped outside the Go heap so
// that it neither counts as resident nor moves the collector's pacing.
type memProbe struct {
	buf []byte
	x   uint64
}

const (
	probeBytes = 1 << 24
	probeSteps = 1 << 20
	// probeQuiet fixes the scale of the reported times and nothing else: they
	// read as on a machine where the probe, run after a pass has pushed its
	// buffer out of the nearer caches, takes 9 ms. That is this box when
	// nothing contends for memory, so here they read as quiet wall time. Two
	// commits are compared on one machine, where the constant cancels;
	// harness.probe_ms says what the probe took in a run.
	probeQuiet = 9 * time.Millisecond
)

func newMemProbe() (*memProbe, error) {
	buf, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &memProbe{buf: buf, x: 88172645463325252}
	p.run() // touch every page once, untimed by any caller
	p.run()
	return p, nil
}

// run does the fixed work and returns how long it took.
func (p *memProbe) run() time.Duration {
	t := time.Now()
	x, buf := p.x, p.buf
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&(probeBytes-1)] += byte(x)
	}
	p.x = x
	return time.Since(t)
}

func (p *memProbe) close() { syscall.Munmap(p.buf) }
