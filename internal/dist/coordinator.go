package dist

import (
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
)

// tailBuffer keeps the last cap bytes written through it — enough stderr to
// diagnose a crashed worker (panic value, fatal log line) without buffering
// a chatty worker's full output. Safe for concurrent use: exec copies
// stderr from a pipe goroutine while the coordinator may read the tail.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	cap int
}

func newTailBuffer(capacity int) *tailBuffer { return &tailBuffer{cap: capacity} }

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.cap; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

// tail returns the captured bytes as a trimmed single-line string (newlines
// become " | "), empty when the worker wrote nothing.
func (t *tailBuffer) tail() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	s := strings.TrimSpace(string(t.buf))
	t.mu.Unlock()
	return strings.ReplaceAll(s, "\n", " | ")
}

// spawnWorkerProc re-executes the current binary as one worker subprocess
// (MaybeWorker turns it into one) with its stdio wired for the frame protocol
// and stderr passed through (tail retained for crash diagnostics). The member
// inherits the coordinator's environment.
func spawnWorkerProc() (cmd *exec.Cmd, stdin io.WriteCloser, stdout io.ReadCloser, tail *tailBuffer, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cmd = exec.Command(exe)
	cmd.Env = append(os.Environ(), workerEnvMarker+"=1")
	// Stderr passes through live and the tail is retained, so a crashed
	// worker's last words can be folded into its jobs' errors.
	tail = newTailBuffer(2048)
	cmd.Stderr = io.MultiWriter(os.Stderr, tail)
	stdin, err = cmd.StdinPipe()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	stdout, err = cmd.StdoutPipe()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, nil, nil, err
	}
	return cmd, stdin, stdout, tail, nil
}
