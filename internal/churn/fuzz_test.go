package churn

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzDecodeDeltas feeds arbitrary bytes to the delta intake parser. Whatever
// the input, DecodeDeltasLenient must not panic, every delta it accepts must
// pass Validate, the lines it rejects must be numbered in strictly increasing
// order within the input, and the accepted deltas must survive an
// EncodeDeltas → DecodeDeltas round trip unchanged.
//
//	go test -run '^$' -fuzz FuzzDecodeDeltas -fuzztime 30s ./internal/churn/
func FuzzDecodeDeltas(f *testing.F) {
	for _, seed := range []string{
		// A valid stream: a route insert, a MAC modify, a route delete.
		`{"elem":"r1","op":"insert","prefix":"10.1.80.0/24","port":2}
{"elem":"sw","op":"modify","mac":"02:00:00:00:00:01","port":1}
{"elem":"r1","op":"delete","prefix":"10.1.80.0/24"}
`,
		"# a comment\n\n   \n\t# another\n{\"elem\":\"r1\",\"op\":\"insert\",\"prefix\":\"0.0.0.0/0\",\"port\":0}\r\n",
		`{"elem":"r1","op":"insert","prefix":"10.0.0.0/8","port":1`,
		`{"elem":"r1","op":"upsert","prefix":"10.0.0.0/8","port":1}`,
		`{"elem":"r1","op":"insert","prefix":"10.0.0.0/8","mac":"02:00:00:00:00:01","port":1}`,
		`{"elem":"r1","op":"insert","prefix":"10.0.0.0/8","port":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, bad, err := DecodeDeltasLenient(bytes.NewReader(data))
		if err != nil {
			return // a stream-level read failure: nothing was accepted
		}
		for _, d := range got {
			if verr := d.Validate(); verr != nil {
				t.Fatalf("accepted delta %+v fails Validate: %v", d, verr)
			}
		}
		lines := strings.Count(string(data), "\n")
		if len(data) > 0 && data[len(data)-1] != '\n' {
			lines++
		}
		for i, le := range bad {
			if le.Line < 1 || le.Line > lines {
				t.Fatalf("rejected line %d outside the input's %d lines", le.Line, lines)
			}
			if i > 0 && le.Line <= bad[i-1].Line {
				t.Fatalf("rejected lines out of order: %d after %d", le.Line, bad[i-1].Line)
			}
		}
		var buf bytes.Buffer
		if err := EncodeDeltas(&buf, got); err != nil {
			t.Fatalf("re-encoding accepted deltas: %v", err)
		}
		back, err := DecodeDeltas(&buf)
		if err != nil {
			t.Fatalf("re-decoding accepted deltas: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(back, got) {
			t.Fatalf("round trip changed the accepted deltas:\n got %+v\nwant %+v", back, got)
		}
	})
}
