package solver

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"symnet/internal/expr"
)

// seenStep is one step of a script: Mention of l when cond is nil, else
// Add(cond).
type seenStep struct {
	cond expr.Cond
	l    expr.Lin
}

// evalUnder evaluates a condition made of comparisons, prefix matches,
// table memberships and their negations under the model m.
func evalUnder(cond expr.Cond, m map[expr.SymID]uint64) bool {
	val := func(l expr.Lin) uint64 {
		if v, ok := l.ConstVal(); ok {
			return v
		}
		return (m[l.Sym] + l.Add) & expr.Mask(l.Width)
	}
	switch v := cond.(type) {
	case expr.Bool:
		return bool(v)
	case expr.Not:
		return !evalUnder(v.C, m)
	case expr.Cmp:
		return expr.EvalCmp(v.Op, val(v.L), val(v.R))
	case expr.Match:
		return val(v.L)&v.Mask == v.Val
	case expr.InSet:
		return v.T.Contains(val(v.L))
	}
	panic(fmt.Sprintf("evalUnder: %T", cond))
}

// symsOf adds the symbols cond names to set.
func symsOf(cond expr.Cond, set map[expr.SymID]bool) {
	add := func(l expr.Lin) {
		if !l.IsConst() {
			set[l.Sym] = true
		}
	}
	switch v := cond.(type) {
	case expr.Not:
		symsOf(v.C, set)
	case expr.Cmp:
		add(v.L)
		add(v.R)
	case expr.Match:
		add(v.L)
	case expr.InSet:
		add(v.L)
	}
}

// checkSeen runs a script on a fresh context and checks Model and
// ModelDiverse against it: each answers as Sat does, its keys are exactly
// the symbols the script named, and it satisfies every condition asserted.
func checkSeen(t *testing.T, tag string, script []seenStep) {
	t.Helper()
	c := NewContext(nil)
	named := map[expr.SymID]bool{}
	var asserted []expr.Cond
	for _, st := range script {
		if st.cond == nil {
			c.Mention(st.l)
			named[st.l.Sym] = true
			continue
		}
		asserted = append(asserted, st.cond)
		symsOf(st.cond, named)
		if !c.Add(st.cond) {
			break
		}
	}
	sat := c.Sat()
	for salt := uint64(0); salt < 3; salt++ {
		m, ok := c.Model()
		if salt > 0 {
			m, ok = c.ModelDiverse(salt)
		}
		if ok != sat {
			t.Fatalf("%s salt %d: model found %v, Sat %v (script %v)", tag, salt, ok, sat, asserted)
		}
		if !ok {
			return
		}
		if got, want := slices.Sorted(maps.Keys(m)), slices.Sorted(maps.Keys(named)); !slices.Equal(got, want) {
			t.Fatalf("%s salt %d: model covers %v, script named %v (script %v)", tag, salt, got, want, asserted)
		}
		for _, cond := range asserted {
			if !evalUnder(cond, m) {
				t.Fatalf("%s salt %d: model %v violates %s", tag, salt, m, cond)
			}
		}
	}
}

// TestModelCoversNamedSymbols pins which symbols a model covers, with a
// union-find that holds only unions: every symbol a script named — in a
// Mention or an asserted condition, constrained or not, unioned or not —
// and no other. The fixed scripts cover the shapes that record a symbol
// nothing else holds (x==x, x!=y on fresh symbols, a Mention of an
// unconstrained symbol), a Mention of a constrained one, and union chains;
// random scripts over comparisons, prefix matches and tables at widths 3
// to 5 cover the rest, orderings between two symbols among them.
func TestModelCoversNamedSymbols(t *testing.T) {
	const w = 4
	x, y, z, u := expr.Lin{Sym: 0, Width: w}, expr.Lin{Sym: 1, Width: w}, expr.Lin{Sym: 2, Width: w}, expr.Lin{Sym: 3, Width: w}
	add := func(cond expr.Cond) seenStep { return seenStep{cond: cond} }
	mention := func(l expr.Lin) seenStep { return seenStep{l: l} }
	for name, script := range map[string][]seenStep{
		"x==x":                  {add(expr.Cmp{Op: expr.Eq, L: x, R: x})},
		"x==x+1":                {add(expr.Cmp{Op: expr.Eq, L: x, R: x.AddConst(1)})},
		"x!=x+1":                {add(expr.Cmp{Op: expr.Ne, L: x, R: x.AddConst(1)})},
		"x!=y fresh":            {add(expr.Cmp{Op: expr.Ne, L: x, R: y})},
		"x<y fresh":             {add(expr.Cmp{Op: expr.Lt, L: x, R: y})},
		"mention unconstrained": {mention(x), add(expr.Cmp{Op: expr.Lt, L: y, R: expr.Const(3, w)})},
		"mention constrained":   {add(expr.Cmp{Op: expr.Gt, L: x, R: expr.Const(9, w)}), mention(x), mention(x)},
		"mention then union":    {mention(x), mention(y), add(expr.Cmp{Op: expr.Eq, L: x, R: y.AddConst(2)})},
		"union chain": {
			add(expr.Cmp{Op: expr.Eq, L: x, R: y.AddConst(1)}),
			add(expr.Cmp{Op: expr.Eq, L: y, R: z.AddConst(1)}),
			add(expr.Cmp{Op: expr.Eq, L: z, R: u.AddConst(1)}),
			add(expr.Cmp{Op: expr.Gt, L: u, R: expr.Const(3, w)}),
			add(expr.Cmp{Op: expr.Ne, L: x, R: expr.Const(7, w)}),
		},
		"chain onto a constrained root": {
			add(expr.Cmp{Op: expr.Le, L: z, R: expr.Const(5, w)}),
			add(expr.Cmp{Op: expr.Eq, L: x, R: z}),
			add(expr.Cmp{Op: expr.Eq, L: y, R: x.AddConst(3)}),
			add(expr.Cmp{Op: expr.Ne, L: y, R: u}),
		},
	} {
		checkSeen(t, name, script)
	}

	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := 3 + rng.Intn(3)
		m := expr.Mask(w)
		tables := narrowTables(w)
		sym := func() expr.Lin {
			return expr.Lin{Sym: expr.SymID(rng.Intn(5)), Add: uint64(rng.Intn(3)), Width: w}
		}
		atom := func() expr.Cond {
			switch rng.Intn(5) {
			case 0, 1:
				return expr.Cmp{Op: expr.CmpOp(rng.Intn(6)), L: sym(), R: expr.Const(uint64(rng.Intn(int(m)+1)), w)}
			case 2:
				return expr.Cmp{Op: expr.CmpOp(rng.Intn(6)), L: sym(), R: sym()}
			case 3:
				return expr.NewPrefix(sym(), uint64(rng.Intn(int(m)+1)), 1+rng.Intn(w-1))
			}
			return expr.InSet{L: sym(), T: tables[rng.Intn(len(tables))]}
		}
		var script []seenStep
		for i, n := 0, 1+rng.Intn(7); i < n; i++ {
			switch rng.Intn(5) {
			case 0:
				script = append(script, mention(sym()))
			case 1:
				script = append(script, add(expr.Not{C: atom()}))
			default:
				script = append(script, add(atom()))
			}
		}
		checkSeen(t, fmt.Sprintf("seed %d w=%d", seed, w), script)
	}
}

// TestEndedRunReadsConcurrently reads one context from four goroutines at
// once, as readers of a resident report read a finished path: Model,
// ModelDiverse and Sat over a union chain whose compression a read must
// not write back, with a pending disjunction to branch over. Under -race a
// read that counts into the run's collector or compresses the union-find
// in place fails; the run's counts stay as the run left them.
func TestEndedRunReadsConcurrently(t *testing.T) {
	const w = 8
	x, y, z, u := expr.Lin{Sym: 0, Width: w}, expr.Lin{Sym: 1, Width: w}, expr.Lin{Sym: 2, Width: w}, expr.Lin{Sym: 3, Width: w}
	st := &Stats{}
	c := NewContext(st)
	c.SetCache(NewSatCache())
	for _, cond := range []expr.Cond{
		expr.NewCmp(expr.Eq, x, y),
		expr.NewCmp(expr.Eq, y, z),
		expr.NewCmp(expr.Gt, z, expr.Const(3, w)),
		expr.NewOr(expr.NewCmp(expr.Eq, u, x), expr.NewCmp(expr.Eq, u, expr.Const(1, w))),
	} {
		if !c.Add(cond) {
			t.Fatalf("%s refuted", cond)
		}
	}
	c.EndRun()
	before, fp := *st, c.Fingerprint()
	want, _ := c.Model()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if m, ok := c.Model(); !ok || !maps.Equal(m, want) {
					t.Errorf("Model = %v, %v; want %v", m, ok, want)
				}
				if _, ok := c.ModelDiverse(uint64(i)); !ok || !c.Sat() {
					t.Error("an ended run's context turned unsatisfiable")
				}
				c.CloneInto(new(Context)).Add(expr.NewCmp(expr.Ne, x, u))
			}
		}()
	}
	wg.Wait()
	if *st != before || c.Fingerprint() != fp || c.run.stats != nil {
		t.Fatalf("reads moved the run: stats %+v (were %+v), fingerprint moved %v", *st, before, c.Fingerprint() != fp)
	}
}

// TestModelDiverseHonorsOrderings: a salted assignment that breaks an
// ordering between two symbols backtracks instead of giving up. At width 5,
// !(x+2 < y+2), y != 4 and (z+2 & 0x1c) == 0x8 admit a model, which Model
// finds minimum-first and ModelDiverse must find from its salted ranks.
func TestModelDiverseHonorsOrderings(t *testing.T) {
	const w = 5
	x, y, z := expr.Lin{Sym: 2, Width: w}, expr.Lin{Sym: 3, Width: w}, expr.Lin{Sym: 0, Width: w}
	checkSeen(t, "ordering", []seenStep{
		{cond: expr.Not{C: expr.Cmp{Op: expr.Lt, L: x.AddConst(2), R: y.AddConst(2)}}},
		{cond: expr.Cmp{Op: expr.Ne, L: y, R: expr.Const(4, w)}},
		{cond: expr.Match{L: z.AddConst(2), Mask: 0x1c, Val: 0x8}},
	})
}
