package tables

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"symnet/internal/expr"
)

// compileLPMMaps is CompileLPM as it was before the sort-and-stack sweep:
// routes indexed by (length, prefix) in hash maps, one lookup per shorter
// length per route, every list sorted afterwards. It is kept as the oracle
// the sweep must agree with, element for element and in order.
func compileLPMMaps(f FIB) []CompiledRoute {
	type pfxKey struct {
		pfx uint64
		ln  int
	}
	seen := make(map[pfxKey]bool, len(f))
	routes := make([]Route, 0, len(f))
	for _, r := range f {
		k := pfxKey{r.Prefix, r.Len}
		if seen[k] {
			continue
		}
		seen[k] = true
		routes = append(routes, r)
	}
	byLen := make(map[int]map[uint64]Route)
	for _, r := range routes {
		m := byLen[r.Len]
		if m == nil {
			m = make(map[uint64]Route)
			byLen[r.Len] = m
		}
		m[r.Prefix] = r
	}
	exclusions := make(map[pfxKey][]Route)
	for _, r := range routes {
		for l := r.Len - 1; l >= 0; l-- {
			m := byLen[l]
			if m == nil {
				continue
			}
			parent := r.Prefix & expr.PrefixMask(l, 32)
			if _, ok := m[parent]; ok {
				k := pfxKey{parent, l}
				exclusions[k] = append(exclusions[k], r)
			}
		}
	}
	out := make([]CompiledRoute, 0, len(routes))
	for _, r := range routes {
		ex := exclusions[pfxKey{r.Prefix, r.Len}]
		sort.Slice(ex, func(i, j int) bool {
			if ex[i].Len != ex[j].Len {
				return ex[i].Len > ex[j].Len
			}
			return ex[i].Prefix < ex[j].Prefix
		})
		out = append(out, CompiledRoute{Route: r, Exclusions: ex})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Len != out[j].Len {
			return out[i].Len > out[j].Len // most specific first
		}
		if out[i].Prefix != out[j].Prefix {
			return out[i].Prefix < out[j].Prefix
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// nestedFIB draws a FIB that exercises what the sweep and the packed sort
// keys have to get right: chains five deep, siblings, /0 and /32 including
// the keys' extremes 0.0.0.0 and 255.255.255.255, and duplicates of a prefix
// under a different port, all in shuffled order — among them the route at
// position 0 repeated at the last position, so the key's position bits
// decide which one is kept.
func nestedFIB(rng *rand.Rand) FIB {
	var f FIB
	add := func(addr uint64, plen int) {
		f = append(f, Route{Prefix: addr & expr.PrefixMask(plen, 32), Len: plen, Port: rng.Intn(4)})
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
		// Few distinct high bits, so that roots nest and collide too.
		addr := uint64(rng.Intn(4))<<30 | uint64(rng.Uint32())&0x3fffffff
		plen := rng.Intn(12)
		for depth := 1 + rng.Intn(5); depth > 0 && plen <= 32; depth-- {
			add(addr, plen)
			if plen < 32 && rng.Intn(2) == 0 {
				add(addr^1<<(31-plen), plen+1) // the sibling of the next link
			}
			if rng.Intn(3) == 0 {
				add(addr, 32)
			}
			plen += 1 + rng.Intn(8)
		}
	}
	for dups := rng.Intn(4); dups > 0 && len(f) > 0; dups-- {
		r := f[rng.Intn(len(f))]
		r.Port = 7 // a port no original carries: the first occurrence must win
		f = append(f, r)
	}
	rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
	if len(f) > 1 && rng.Intn(2) == 0 {
		r := f[0]
		r.Port = 6
		f = append(f, r)
	}
	return f
}

// TestCompileLPMPackedKeyEdges: the routes whose packed keys sit at the ends
// of the key space, and a duplicate at the first and last positions, whose
// first occurrence must win.
func TestCompileLPMPackedKeyEdges(t *testing.T) {
	f := FIB{
		{Prefix: 0, Len: 0, Port: 1},
		{Prefix: 0xffffffff, Len: 32, Port: 2},
		{Prefix: 0, Len: 32, Port: 3},
		{Prefix: 0xff000000, Len: 8, Port: 4},
		{Prefix: 0, Len: 1, Port: 5},
		{Prefix: 0, Len: 0, Port: 9},
	}
	got := CompileLPM(f)
	if want := compileLPMMaps(f); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
	if len(got) != 5 {
		t.Fatalf("%d routes, want 5: the duplicate /0 must go", len(got))
	}
	def := got[len(got)-1]
	if def.Route != f[0] || len(def.Exclusions) != 4 {
		t.Fatalf("default route %v with %d exclusions, want %v (position 0) with 4", def.Route, len(def.Exclusions), f[0])
	}
	if got[0].Route != f[2] || got[1].Route != f[1] {
		t.Fatalf("the /32s come out as %v, %v; want 0.0.0.0 then 255.255.255.255", got[0].Route, got[1].Route)
	}
}

func TestCompileLPMAgainstPredecessor(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	deepest, dups := 0, 0
	for trial := 0; trial < 2000; trial++ {
		f := nestedFIB(rng)
		in := append(FIB(nil), f...)
		got, want := CompileLPM(f), compileLPMMaps(f)
		if !reflect.DeepEqual(f, in) {
			t.Fatalf("trial %d: CompileLPM reordered its input", trial)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: fib %v\n got %v\nwant %v", trial, f, got, want)
		}
		dups += len(f) - len(got)
		for _, c := range got {
			deepest = max(deepest, len(c.Exclusions))
		}
	}
	if deepest < 8 || dups == 0 {
		t.Fatalf("generator too tame: deepest list %d, %d duplicates dropped", deepest, dups)
	}
}

// TestCompileLPMListsAreIndependent: the lists share one backing array, so
// appending to one must not write into its neighbour.
func TestCompileLPMListsAreIndependent(t *testing.T) {
	f := FIB{{Prefix: 10 << 24, Len: 8}, {Prefix: 10<<24 | 1<<16, Len: 16}, {Prefix: 11 << 24, Len: 8}, {Prefix: 11<<24 | 1<<16, Len: 16}}
	cs := CompileLPM(f)
	want := compileLPMMaps(f)
	for i := range cs {
		cs[i].Exclusions = append(cs[i].Exclusions, Route{Port: 99})
	}
	for i := range cs {
		if n := len(want[i].Exclusions); n > 0 && !reflect.DeepEqual(cs[i].Exclusions[:n], want[i].Exclusions) {
			t.Fatalf("route %v: list clobbered by a neighbour's append: %v", cs[i].Route, cs[i].Exclusions)
		}
	}
}

// portRowsOf is what the router models built from CompileLPM before
// LPMRows: the compiled routes grouped by port in CompileLPM order, each
// port's as a prefix row per route minus its exclusions.
func portRowsOf(cs []CompiledRoute, nports int) [][]expr.GuardRow {
	out := make([][]expr.GuardRow, nports)
	for p := range out {
		out[p] = []expr.GuardRow{}
	}
	for _, c := range cs {
		r := expr.GuardRow{Kind: expr.GuardPrefix, V: c.Prefix, Len: c.Len}
		for _, ex := range c.Exclusions {
			r.Excl = append(r.Excl, expr.GuardExcl{V: ex.Prefix, Len: ex.Len})
		}
		out[c.Port] = append(out[c.Port], r)
	}
	return out
}

// TestLPMRowsMatchCompileLPM: each port's rows are CompileLPM's routes to
// it, in its order, with its exclusions in its order — on random FIBs with
// duplicates, default routes, /32s, deep chains and ports no route uses —
// and no port's rows or row's exclusions reach into a neighbour's.
func TestLPMRowsMatchCompileLPM(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fibs := []FIB{nil, {{Prefix: 0, Len: 0, Port: 2}}}
	for range 2000 {
		fibs = append(fibs, nestedFIB(rng))
	}
	unused := 0
	for trial, f := range fibs {
		const nports = 9 // nestedFIB's ports are 0 to 3, 6 and 7
		got, _ := LPMRows(f, nports)
		want := portRowsOf(CompileLPM(f), nports)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: fib %v\n got %v\nwant %v", trial, f, got, want)
		}
		for p, rows := range got {
			if cap(rows) != len(rows) {
				t.Fatalf("trial %d: port %d's rows have room for %d more", trial, p, cap(rows)-len(rows))
			}
			if len(rows) == 0 {
				unused++
			}
			for _, r := range rows {
				if cap(r.Excl) != len(r.Excl) {
					t.Fatalf("trial %d: port %d row %v has room for more exclusions", trial, p, r)
				}
			}
		}
	}
	if unused == 0 {
		t.Fatal("generator too tame: every port has a route")
	}
}
