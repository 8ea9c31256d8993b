package solver

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"symnet/internal/expr"
)

// randCond builds a random condition over a small symbol universe, shaped
// like the conditions network models emit: comparisons against constants,
// symbol-symbol (dis)equalities, prefix matches, and small disjunctions.
func randCond(rng *rand.Rand) expr.Cond {
	const w = 8
	sym := func() expr.Lin {
		return expr.Lin{Sym: expr.SymID(rng.Intn(6)), Add: uint64(rng.Intn(4)), Width: w}
	}
	cst := func() expr.Lin { return expr.Const(uint64(rng.Intn(40)), w) }
	atom := func() expr.Cond {
		switch rng.Intn(4) {
		case 0:
			return expr.NewCmp(expr.CmpOp(rng.Intn(6)), sym(), cst())
		case 1:
			return expr.NewCmp(expr.Eq, sym(), sym())
		case 2:
			return expr.NewCmp(expr.Ne, sym(), sym())
		default:
			return expr.NewPrefix(sym(), uint64(rng.Intn(1<<w)), rng.Intn(w+1))
		}
	}
	switch rng.Intn(5) {
	case 0:
		return expr.NewOr(atom(), atom())
	case 1:
		return expr.NewNot(atom())
	default:
		return atom()
	}
}

// replay builds a fresh context asserting the given sequence, mirroring
// what the forked context under test should be equivalent to.
func replay(conds []expr.Cond) *Context {
	c := NewContext(nil)
	for _, cond := range conds {
		if !c.Add(cond) {
			break
		}
	}
	return c
}

// sameVerdict compares a forked context against a from-scratch replay of
// its assertion sequence: identical Sat verdict, and identical domains for
// every universe symbol when the deterministic part survives.
func sameVerdict(t *testing.T, tag string, got *Context, conds []expr.Cond) {
	t.Helper()
	want := replay(conds)
	if got.Unsat() != want.Unsat() {
		t.Fatalf("%s: Unsat=%v, replay says %v (conds=%v)", tag, got.Unsat(), want.Unsat(), conds)
	}
	if gs, ws := got.Sat(), want.Sat(); gs != ws {
		t.Fatalf("%s: Sat=%v, replay says %v (conds=%v)", tag, gs, ws, conds)
	}
	if got.Unsat() {
		return
	}
	for s := expr.SymID(0); s < 6; s++ {
		l := expr.Lin{Sym: s, Width: 8}
		gd, wd := got.Domain(l), want.Domain(l)
		if !setsEqual(gd, wd) {
			t.Fatalf("%s: Domain(s%d)=%s, replay says %s (conds=%v)", tag, s, gd, wd, conds)
		}
	}
}

// TestCloneIsolationRandomized drives interleaved Add/Clone/Sat sequences
// on two contexts forked from a shared random prefix and asserts neither
// branch observes the other's constraints under the structure-sharing
// representation. Run with -race: the two branches mutate concurrently,
// so any write through shared structure is caught.
func TestCloneIsolationRandomized(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := NewContext(nil)
			var prefix []expr.Cond
			for i, n := 0, rng.Intn(6); i < n; i++ {
				cond := randCond(rng)
				prefix = append(prefix, cond)
				if !base.Add(cond) {
					break
				}
			}
			ctxA, ctxB := base.CloneInto(new(Context)), base.CloneInto(new(Context))
			// Branches run concurrently: give each a run of its own.
			ownRun(ctxA)
			ownRun(ctxB)
			condsA := append([]expr.Cond(nil), prefix...)
			condsB := append([]expr.Cond(nil), prefix...)
			// Pre-generate per-branch scripts so goroutines share no RNG.
			var scriptA, scriptB []expr.Cond
			for i, n := 0, 3+rng.Intn(8); i < n; i++ {
				scriptA = append(scriptA, randCond(rng))
			}
			for i, n := 0, 3+rng.Intn(8); i < n; i++ {
				scriptB = append(scriptB, randCond(rng))
			}
			run := func(c *Context, script []expr.Cond, conds *[]expr.Cond, salt int64) {
				rng := rand.New(rand.NewSource(salt))
				for _, cond := range script {
					*conds = append(*conds, cond)
					if !c.Add(cond) {
						break
					}
					switch rng.Intn(4) {
					case 0:
						c.Sat()
					case 1:
						// Interior fork: keep stepping the clone, exactly
						// like the engine's If.
						c = c.CloneInto(new(Context))
					}
				}
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); run(ctxA, scriptA, &condsA, seed*2+1) }()
			go func() { defer wg.Done(); run(ctxB, scriptB, &condsB, seed*2+2) }()
			wg.Wait()
			// Note: run may have re-cloned; the tails beyond the last clone
			// are still in condsA/condsB because clones share all prior
			// assertions and the post-clone context is what kept the Adds.
			// We compare the original forks, which hold every Add made
			// before any interior fork; to keep the check exact, replay
			// compares against the conds each context actually accepted.
			sameVerdict(t, "branch A", ctxA, condsUpTo(ctxA, condsA))
			sameVerdict(t, "branch B", ctxB, condsUpTo(ctxB, condsB))
			// The shared base must be untouched by both branches.
			sameVerdict(t, "base", base, prefix)
		})
	}
}

// ownRun gives c a run block of its own, keeping its cache, so it counts
// into a stats collector of its own: setting the stats of the block c
// shares would move its siblings' too.
func ownRun(c *Context) {
	r := *c.run
	r.stats = &Stats{}
	c.run = &r
}

// condsUpTo trims the recorded sequence to the number of Adds the context
// itself chained (interior clones keep accepting Adds on the clone, which
// the original no longer sees).
func condsUpTo(c *Context, conds []expr.Cond) []expr.Cond {
	n := int(c.nAdds)
	if n > len(conds) {
		n = len(conds)
	}
	return conds[:n]
}

// TestCloneIsolationPendingOrs: a pending disjunction asserted on one fork
// must not leak into the sibling, including through the DPLL solve path
// (which itself clones).
func TestCloneIsolationPendingOrs(t *testing.T) {
	x := expr.Lin{Sym: 0, Width: 8}
	y := expr.Lin{Sym: 1, Width: 8}
	base := NewContext(nil)
	if !base.Add(expr.NewCmp(expr.Le, x, expr.Const(10, 8))) {
		t.Fatal("prefix refuted")
	}
	a := base.CloneInto(new(Context))
	b := base.CloneInto(new(Context))
	// a gets a two-symbol disjunction that stays pending.
	or := expr.NewOr(
		expr.NewCmp(expr.Eq, x, y),
		expr.NewCmp(expr.Eq, x, expr.Lin{Sym: 1, Add: 1, Width: 8}),
	)
	if !a.Add(or) {
		t.Fatal("or refuted")
	}
	if a.PendingOrs() != 1 {
		t.Fatalf("a.PendingOrs=%d want 1", a.PendingOrs())
	}
	if b.PendingOrs() != 0 || base.PendingOrs() != 0 {
		t.Fatal("pending Or leaked to sibling or base")
	}
	if !a.Sat() || !b.Sat() || !base.Sat() {
		t.Fatal("all three must be satisfiable")
	}
	// Solving a (which clones internally) must not disturb b.
	if !b.Add(expr.NewCmp(expr.Eq, x, expr.Const(7, 8))) {
		t.Fatal("b add refuted")
	}
	if d := b.Domain(x); d.Size() != 1 {
		t.Fatalf("b Domain(x)=%s", d)
	}
	if d := a.Domain(x); d.Size() != 11 {
		t.Fatalf("a Domain(x)=%s, want 0..10", d)
	}
}
