package churn

import (
	"bytes"
	"reflect"
	"testing"

	"symnet/internal/tables"
)

func genTestFIB() tables.FIB {
	return tables.FIB{
		{Prefix: 0x0A000000, Len: 8, Port: 0},
		{Prefix: 0x0A010000, Len: 16, Port: 1},
		{Prefix: 0x14000000, Len: 8, Port: 1},
		{Prefix: 0x1E000000, Len: 8, Port: 2},
		{Prefix: 0, Len: 0, Port: 0},
	}
}

func genTestMACs() tables.MACTable {
	return tables.MACTable{
		{MAC: 0x02AA00000001, Port: 0},
		{MAC: 0x020000000001, Port: 1},
		{MAC: 0x020000000002, Port: 1},
		{MAC: 0x020000000003, Port: 2},
		{MAC: 0x020000000004, Port: 2},
	}
}

func TestGenDeltasDeterministic(t *testing.T) {
	a, err := GenFIBDeltas("rt", genTestFIB(), "10.128.0.0/9", 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenFIBDeltas("rt", genTestFIB(), "10.128.0.0/9", 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different FIB delta streams")
	}
	c, err := GenFIBDeltas("rt", genTestFIB(), "10.128.0.0/9", 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical FIB delta streams")
	}

	m1, err := GenMACDeltas("sw", genTestMACs(), 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := GenMACDeltas("sw", genTestMACs(), 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("same seed produced different MAC delta streams")
	}
}

// TestGenDeltasApplicable pins the generator's liveness contract: replaying
// the stream against a shadow table never references a missing rule or
// re-inserts a live one.
func TestGenDeltasApplicable(t *testing.T) {
	ds, err := GenFIBDeltas("rt", genTestFIB(), "10.128.0.0/9", 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		pfx uint64
		ln  int
	}
	live := map[key]int{}
	for _, r := range genTestFIB() {
		live[key{r.Prefix, r.Len}] = r.Port
	}
	for i, d := range ds {
		pfx, plen, err := tables.ParsePrefix(d.Prefix)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		k := key{pfx, plen}
		_, ok := live[k]
		switch d.Op {
		case OpInsert:
			if ok {
				t.Fatalf("delta %d inserts live route %s", i, d.Prefix)
			}
			live[k] = d.Port
		case OpDelete:
			if !ok {
				t.Fatalf("delta %d deletes missing route %s", i, d.Prefix)
			}
			delete(live, k)
		case OpModify:
			if !ok {
				t.Fatalf("delta %d modifies missing route %s", i, d.Prefix)
			}
			live[k] = d.Port
		}
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	fds, err := GenFIBDeltas("rt", genTestFIB(), "10.128.0.0/9", 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	mds, err := GenMACDeltas("sw", genTestMACs(), 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	ds := append(fds, mds...)
	var buf bytes.Buffer
	buf.WriteString("# comment line\n\n")
	if err := EncodeDeltas(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDeltas(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ds) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, ds)
	}
}

func TestDeltaValidate(t *testing.T) {
	bad := []Delta{
		{Elem: "rt", Op: "upsert", Prefix: "10.0.0.0/8"},
		{Elem: "", Op: OpInsert, Prefix: "10.0.0.0/8"},
		{Elem: "rt", Op: OpInsert},
		{Elem: "rt", Op: OpInsert, Prefix: "10.0.0.0/8", MAC: "02:00:00:00:00:01"},
		{Elem: "rt", Op: OpInsert, Prefix: "10.0.0/8"},
		{Elem: "rt", Op: OpInsert, Prefix: "10.0.0.0/40"},
		{Elem: "sw", Op: OpInsert, MAC: "02:00:00:01"},
		{Elem: "sw", Op: OpInsert, MAC: "02:00:00:00:00:zz"},
		{Elem: "rt", Op: OpInsert, Prefix: "10.0.0.0/8", Port: -1},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a malformed delta", d)
		}
	}
	good := Delta{Elem: "rt", Op: OpModify, Prefix: "10.0.0.0/8", Port: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v): %v", good, err)
	}
}
