package churn

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"symnet/internal/tables"
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

// FuzzReadState feeds arbitrary bytes to the snapshot decoder behind POST
// /v1/snapshot and restores whatever it accepts onto a fresh differential
// service. Nothing may panic; a refused restore must leave the service's
// tables and published version as they were, and an accepted one must
// install the snapshot's tables under a version past both the service's and
// the snapshot's.
//
//	go test -run '^$' -fuzz FuzzReadState -fuzztime 30s ./internal/churn/
func FuzzReadState(f *testing.F) {
	seed := func(edit func(*State)) []byte {
		st := newDiffService(f, 1).exportState()
		edit(st)
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	export := seed(func(*State) {})
	f.Add(export)
	f.Add(export[:len(export)/2])
	f.Add(seed(func(st *State) { st.Routers["rt"] = tables.FIB{{Prefix: 0x0A000000, Len: 40, Port: 0}} }))
	f.Add(seed(func(st *State) {
		st.Routers["rt"] = st.Routers["rt"][:1]
		st.Switches["sw"] = tables.MACTable{}
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadState(bytes.NewReader(data))
		if err != nil {
			return
		}
		svc := newDiffService(t, 1)
		fib, macs, pub := slices.Clone(svc.routers["rt"]), slices.Clone(svc.switches["sw"]), svc.current()
		got, err := svc.restoreState(st)
		if err != nil {
			if !slices.Equal(svc.routers["rt"], fib) || !slices.Equal(svc.switches["sw"], macs) || svc.current() != pub {
				t.Fatalf("refused restore (%v) changed the service", err)
			}
			return
		}
		if got.Version <= pub.Version || got.Version <= st.Version || svc.current() != got {
			t.Fatalf("restore published version %d after %d from a version-%d snapshot", got.Version, pub.Version, st.Version)
		}
		if !slices.Equal(svc.routers["rt"], st.Routers["rt"]) || !slices.Equal(svc.switches["sw"], st.Switches["sw"]) {
			t.Fatal("accepted restore did not install the snapshot's tables")
		}
	})
}
