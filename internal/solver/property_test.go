package solver

import (
	"math/rand"
	"testing"
	"testing/quick"

	"symnet/internal/expr"
)

// Property: for random conjunctions of constraints over a small universe,
// the solver's satisfiability verdict matches brute force.
func TestSolverMatchesBruteForce(t *testing.T) {
	const width = 6
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a expr.Alloc
		syms := []expr.Lin{a.Fresh(width), a.Fresh(width), a.Fresh(width)}
		nConds := 1 + rng.Intn(5)
		conds := make([]expr.Cond, 0, nConds)
		for i := 0; i < nConds; i++ {
			op := []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}[rng.Intn(6)]
			l := syms[rng.Intn(len(syms))].AddConst(uint64(rng.Intn(8)))
			var r expr.Lin
			if rng.Intn(2) == 0 {
				r = expr.Const(uint64(rng.Intn(1<<width)), width)
			} else {
				r = syms[rng.Intn(len(syms))]
			}
			// Restrict sym-vs-sym ordering to Eq/Ne (the solver's exact
			// fragment; ordering between symbols uses hull reasoning).
			if r.Sym != expr.NoSym && op != expr.Eq && op != expr.Ne {
				op = expr.Ne
			}
			conds = append(conds, expr.NewCmp(op, l, r))
		}
		ctx := NewContext(nil)
		refuted := false
		for _, c := range conds {
			if !ctx.Add(c) {
				refuted = true
				break
			}
		}
		got := !refuted && ctx.Sat()
		// Brute force over the 3-symbol universe.
		want := false
		m := expr.Mask(width)
		eval := func(l expr.Lin, vals [3]uint64) uint64 {
			if l.Sym == expr.NoSym {
				return l.Add
			}
			return (vals[int(l.Sym)] + l.Add) & m
		}
	brute:
		for x := uint64(0); x < 1<<width; x++ {
			for y := uint64(0); y < 1<<width; y++ {
				for z := uint64(0); z < 1<<width; z++ {
					vals := [3]uint64{x, y, z}
					ok := true
					for _, c := range conds {
						cmp := c.(expr.Cmp)
						if !expr.EvalCmp(cmp.Op, eval(cmp.L, vals), eval(cmp.R, vals)) {
							ok = false
							break
						}
					}
					if ok {
						want = true
						break brute
					}
				}
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: models produced by the solver always satisfy the constraints
// they were generated from.
func TestModelsSatisfyConstraints(t *testing.T) {
	const width = 8
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a expr.Alloc
		syms := []expr.Lin{a.Fresh(width), a.Fresh(width)}
		ctx := NewContext(nil)
		var conds []expr.Cond
		for i := 0; i < 1+rng.Intn(4); i++ {
			op := []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Ge}[rng.Intn(4)]
			l := syms[rng.Intn(2)]
			r := expr.Const(uint64(rng.Intn(256)), width)
			c := expr.NewCmp(op, l, r)
			conds = append(conds, c)
			if !ctx.Add(c) {
				return true // unsat mid-way: nothing to check
			}
		}
		for _, salt := range []uint64{0, 1, 7} {
			var model map[expr.SymID]uint64
			var ok bool
			if salt == 0 {
				model, ok = ctx.Model()
			} else {
				model, ok = ctx.ModelDiverse(salt)
			}
			if !ok {
				return true
			}
			for _, c := range conds {
				cmp := c.(expr.Cmp)
				lv := (model[cmp.L.Sym] + cmp.L.Add) & expr.Mask(width)
				rv, _ := cmp.R.ConstVal()
				if !expr.EvalCmp(cmp.Op, lv, rv) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Domain projection contains every model value.
func TestDomainContainsModels(t *testing.T) {
	var a expr.Alloc
	x := a.Fresh(8)
	ctx := NewContext(nil)
	ctx.Add(expr.NewCmp(expr.Ge, x, expr.Const(10, 8)))
	ctx.Add(expr.NewCmp(expr.Ne, x, expr.Const(12, 8)))
	for _, salt := range []uint64{0, 1, 2, 3} {
		m, ok := ctx.ModelDiverse(salt)
		if !ok {
			t.Fatal("sat expected")
		}
		if !ctx.Domain(x).Contains(m[x.Sym]) {
			t.Fatalf("model value %d outside domain %v", m[x.Sym], ctx.Domain(x))
		}
		if m[x.Sym] == 12 || m[x.Sym] < 10 {
			t.Fatalf("model value %d violates constraints", m[x.Sym])
		}
	}
}
