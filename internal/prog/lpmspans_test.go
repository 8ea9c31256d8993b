package prog_test

import (
	"math/rand"
	"slices"
	"testing"

	"symnet/internal/datasets"
	"symnet/internal/expr"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// nestedFIB draws a FIB whose nesting the LPM sweep has to get right:
// chains up to five deep, siblings, /0 and /32 at both ends of the address
// space, and duplicates of a prefix under another port, shuffled. Ports
// are 0 to 3 and 7 (the duplicates'), so ports 4 to 6 and 8 carry nothing.
func nestedFIB(rng *rand.Rand) tables.FIB {
	var f tables.FIB
	add := func(addr uint64, plen int) {
		f = append(f, tables.Route{Prefix: addr & expr.PrefixMask(plen, 32), Len: plen, Port: rng.Intn(4)})
	}
	if rng.Intn(2) == 0 {
		add(0, 0)
	}
	if rng.Intn(2) == 0 {
		add(0, 32)
	}
	if rng.Intn(2) == 0 {
		add(0xffffffff, 32)
		add(0xffffffff, rng.Intn(32))
	}
	for roots := 1 + rng.Intn(6); roots > 0; roots-- {
		addr := uint64(rng.Intn(4))<<30 | uint64(rng.Uint32())&0x3fffffff
		plen := rng.Intn(12)
		for depth := 1 + rng.Intn(5); depth > 0 && plen <= 32; depth-- {
			add(addr, plen)
			if plen < 32 && rng.Intn(2) == 0 {
				add(addr^1<<(31-plen), plen+1)
			}
			if rng.Intn(3) == 0 {
				add(addr, 32)
			}
			plen += 1 + rng.Intn(8)
		}
	}
	for dups := rng.Intn(4); dups > 0 && len(f) > 0; dups-- {
		r := f[rng.Intn(len(f))]
		r.Port = 7
		f = append(f, r)
	}
	rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
	return f
}

// TestLPMSpansMatchBuildITable: the span table tables.LPMRows's sweep
// writes for each port — used ports and unused ones alike — is the one
// lowering merges from that port's rows (Table.SpanTable), span for span and
// fingerprint for fingerprint, on an empty FIB, a default-only FIB, 2 000
// nested ones and the cold-path core FIB. And the sweep coalesced each
// port's spans itself: no table holds room its construction merged away.
func TestLPMSpansMatchBuildITable(t *testing.T) {
	const nports = 9
	rng := rand.New(rand.NewSource(29))
	fibs := []tables.FIB{nil, {{Prefix: 0, Len: 0, Port: 2}}}
	for range 2000 {
		fibs = append(fibs, nestedFIB(rng))
	}
	fibs = append(fibs, datasets.CoreFIB(62500, 16, 1))
	gaps, unused := 0, 0
	for trial, f := range fibs {
		n := nports
		if trial == len(fibs)-1 {
			n = 16
		}
		rows, spans := tables.LPMRows(f, n)
		if len(spans) != n {
			t.Fatalf("trial %d: %d span tables for %d ports", trial, len(spans), n)
		}
		covered := uint64(0)
		for p := range n {
			got, want := spans[p], (sefl.Table{F: sefl.IPDst, Rows: rows[p]}).SpanTable()
			if got.Width() != 32 || !slices.Equal(got.Spans(), want.Spans()) {
				t.Fatalf("trial %d port %d: fib %v\nsweep  %v\nmerged %v", trial, p, f, got.Spans(), want.Spans())
			}
			if s := got.Spans(); cap(s) != len(s) {
				t.Fatalf("trial %d port %d: %d spans with room for %d: the sweep left adjacent spans", trial, p, len(s), cap(s))
			}
			if len(rows[p]) == 0 {
				unused++
			}
			for _, s := range got.Spans() {
				covered += s.Hi - s.Lo + 1
			}
		}
		if covered < 1<<32 {
			gaps++
		}
	}
	if gaps == 0 || unused == 0 {
		t.Fatalf("generator too tame: %d FIBs with gaps, %d unused ports", gaps, unused)
	}
}
