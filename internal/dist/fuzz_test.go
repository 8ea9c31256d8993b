package dist

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateFuzzSeeds = flag.Bool("update-fuzz-seeds", false, "rewrite the committed seeds under testdata/fuzz from the streams the wire and result tests build")

// FuzzServeSession feeds arbitrary bytes to a worker session as the
// coordinator's side of the stream. A worker faces bytes it did not write —
// a resident `symworker -listen` accepts any TCP peer — so whatever arrives,
// serveSession must return (an error or nil) and never panic. The seed
// corpus under testdata/fuzz/FuzzServeSession is every stream the wire tests
// build (see sessionStreams); `go test` replays it on every run, and a
// crasher the fuzzer finds is committed there beside them.
func FuzzServeSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = serveSession(newConn(bytes.NewReader(data), io.Discard), nil, nil) // any error is an acceptable answer
	})
}

// FuzzResultFrame feeds arbitrary bytes to the coordinator's side of a
// result: decoded as a frame, its summary unpacked at the default hop budget.
// A pool faces bytes it did not write — any peer that completes the
// handshake is a fleet member — so unpack must answer a Summary or an error
// and never panic, and a Summary it answers holds each path's whole history.
// The seed corpus under testdata/fuzz/FuzzResultFrame is every frame
// resultCases builds.
func FuzzResultFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := newConn(bytes.NewReader(data), io.Discard).recv()
		if err != nil || fr.Result == nil || fr.Result.Summary == nil {
			return
		}
		w := fr.Result.Summary
		s, err := w.unpack(0)
		if err != nil {
			return // any error is an acceptable answer
		}
		for i, p := range s.Paths {
			depth := 0
			for k := w.Paths[i].Leaf; k >= 0 && depth <= len(w.Hops); k = w.Hops[k].Parent {
				depth++
			}
			if len(p.Ports) != depth {
				t.Fatalf("path %d: %d ports for a history %d hops deep", i, len(p.Ports), depth)
			}
		}
	})
}

// sessionStreams is every coordinator-side stream the wire tests serve: the
// handshake and batch error cases (wrong first frame, wrong versions,
// garbage, truncations, setups against a worker holding nothing) and the
// clean three-batch session (hello, full/reuse/delta batch, jobs, end, bye).
func sessionStreams(t testing.TB) []streamCase {
	return append(append(handshakeErrorCases(t), batchErrorCases(t)...), servedSession(t))
}

// seedCorpora names each fuzz target's committed seed corpus and the test
// cases it is generated from.
var seedCorpora = []struct {
	fuzz  string
	cases func(testing.TB) []streamCase
}{
	{"FuzzServeSession", sessionStreams},
	{"FuzzResultFrame", resultCases},
}

// TestFuzzSeedCorpusCurrent keeps the committed seeds from rotting: each must
// be byte-for-byte the stream the current frame set encodes, so a change to
// the wire (which also wants a protoVersion bump) shows up here as a stale
// corpus. Regenerate with `go test ./internal/dist -run FuzzSeedCorpus
// -update-fuzz-seeds`.
func TestFuzzSeedCorpusCurrent(t *testing.T) {
	for _, corpus := range seedCorpora {
		dir := filepath.Join("testdata", "fuzz", corpus.fuzz)
		for _, sc := range corpus.cases(t) {
			path := filepath.Join(dir, strings.ReplaceAll(sc.name, " ", "-"))
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", encodeInput(t, sc.frames, sc.trailing).Bytes())
			if *updateFuzzSeeds {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%v (run with -update-fuzz-seeds)", err)
			} else if string(got) != want {
				t.Errorf("%s is not the stream %q encodes to today (run with -update-fuzz-seeds)", path, sc.name)
			}
		}
	}
}
