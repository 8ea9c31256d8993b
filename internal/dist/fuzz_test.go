package dist

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/sefl"
)

var updateFuzzSeeds = flag.Bool("update-fuzz-seeds", false, "rewrite the committed seeds under testdata/fuzz from the streams the wire and result tests build")

// FuzzServeSession feeds arbitrary bytes to a worker session as the
// coordinator's side of the stream. A worker faces bytes it did not write —
// a resident `symworker -listen` accepts any TCP peer — so whatever arrives,
// serveSession must return (an error or nil) and never panic. The seed
// corpus under testdata/fuzz/FuzzServeSession is every stream the wire tests
// build (see sessionStreams); `go test` replays it on every run. A crasher
// the fuzzer finds is committed as a case of those tests, since the corpus
// holds nothing else (TestFuzzSeedCorpusCurrent).
func FuzzServeSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = serveSession(newConn(bytes.NewReader(data), io.Discard), nil) // any error is an acceptable answer
	})
}

// FuzzResultFrame feeds arbitrary bytes to the coordinator's side of a
// result: decoded as a frame, its summary unpacked at the default hop and
// path budgets.
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
		s, err := w.unpack(0, 0)
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
// garbage, truncations, source the member cannot decode, setups against a
// worker holding nothing), the sessions installing incomplete source, and
// the clean three-batch session (hello, full/reuse/delta batch, jobs, end,
// bye).
func sessionStreams(t testing.TB) []streamCase {
	out := append(handshakeErrorCases(t), batchErrorCases(t)...)
	return append(append(out, incompleteSessions(t)...), servedSession(t))
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
// corpus, and a file no current case names (a deleted case's stream, which
// after a version bump tests only the version refusal) fails it too.
// Regenerate with `go test ./internal/dist -run FuzzSeedCorpus
// -update-fuzz-seeds`, which also removes such files.
func TestFuzzSeedCorpusCurrent(t *testing.T) {
	for _, corpus := range seedCorpora {
		dir := filepath.Join("testdata", "fuzz", corpus.fuzz)
		named := map[string]bool{}
		for _, sc := range corpus.cases(t) {
			named[strings.ReplaceAll(sc.name, " ", "-")] = true
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
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			path := filepath.Join(dir, f.Name())
			switch {
			case named[f.Name()]:
			case *updateFuzzSeeds:
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			default:
				t.Errorf("%s is no current case's stream (run with -update-fuzz-seeds)", path)
			}
		}
	}
}

// TestSeedSEFLEqualsItself: every SEFL the committed seeds carry — the
// port source of each setup and delta, and each job's packet — that
// decodes is equal to itself and to its own trip through the wire codec
// (sefl.Equal, the key of a network's cached injection program).
func TestSeedSEFLEqualsItself(t *testing.T) {
	var srcs []*sefl.WireInstr
	for _, corpus := range seedCorpora {
		dir := filepath.Join("testdata", "fuzz", corpus.fuzz)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
			if !ok {
				t.Fatalf("%s: not a fuzz seed", f.Name())
			}
			data, err := strconv.Unquote(strings.TrimSuffix(lit, ")\n"))
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			c := newConn(strings.NewReader(data), io.Discard)
			for {
				fr, err := c.recv()
				if err != nil {
					break
				}
				if fr.Jobs != nil {
					for _, j := range fr.Jobs.Jobs {
						srcs = append(srcs, j.Packet)
					}
				}
				if b := fr.Batch; b != nil {
					var entries []core.WireProgramEntry
					if b.Delta != nil {
						entries = b.Delta.Programs
					}
					if s, err := decodeSetup(b.SetupRaw); err == nil {
						entries = append(entries, s.Programs...)
					}
					for _, e := range entries {
						srcs = append(srcs, e.Src)
					}
				}
			}
		}
	}
	n := 0
	for _, w := range srcs {
		x, err := sefl.DecodeInstr(w)
		if err != nil {
			continue // the seeds of malformed source
		}
		n++
		if !sefl.Equal(x, x) {
			t.Fatalf("%s is not equal to itself", x)
		}
		w2, err := sefl.EncodeInstr(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := sefl.DecodeInstr(w2)
		if err != nil {
			t.Fatal(err)
		}
		if !sefl.Equal(x, back) {
			t.Fatalf("%s is not equal to its trip through the codec", x)
		}
	}
	t.Logf("%d decodable SEFL trees in the seeds", n)
	if n == 0 {
		t.Fatal("the seeds carry no SEFL")
	}
}
