package minic

import (
	"fmt"

	"symnet/internal/expr"
	"symnet/internal/solver"
)

// PathStatus describes how one symbolic execution path of a mini-C program
// ended.
type PathStatus uint8

const (
	// OffEnd: execution fell off the end of the program.
	OffEnd PathStatus = iota
	// Returned: a returnStmt executed.
	Returned
	// MemError: an array access was (or could be) out of bounds.
	MemError
	// killed: the per-path step budget was exhausted.
	killed
)

func (s PathStatus) String() string {
	switch s {
	case OffEnd:
		return "off-end"
	case Returned:
		return "returned"
	case MemError:
		return "memory-error"
	case killed:
		return "killed"
	}
	return "unknown"
}

// outcome is one finished execution path.
type outcome struct {
	Status PathStatus
	Ret    expr.Lin // valid when Status == Returned
	Vars   map[string]expr.Lin
	Arrays map[string][]expr.Lin
	Ctx    *solver.Context
	Steps  int
}

// result aggregates a symbolic run.
type result struct {
	Paths []outcome
	// Exhausted is set when MaxPaths or the global step budget was hit;
	// results are then incomplete — exactly Klee's behaviour when stopped
	// after its time budget (paper: "We stop the tools after one hour").
	Exhausted  bool
	TotalSteps int
}

// Limits bounds a symbolic run.
type Limits struct {
	MaxPaths   int // maximum finished paths (default 1 << 20)
	MaxSteps   int // per-path statement budget (default 1 << 16)
	TotalSteps int // global statement budget (default 1 << 24)
}

func (l Limits) withDefaults() Limits {
	if l.MaxPaths == 0 {
		l.MaxPaths = 1 << 20
	}
	if l.MaxSteps == 0 {
		l.MaxSteps = 1 << 16
	}
	if l.TotalSteps == 0 {
		l.TotalSteps = 1 << 24
	}
	return l
}

// control says how a statement sequence terminated.
type control uint8

const (
	ctlNormal control = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// mstate is one in-flight execution state.
type mstate struct {
	vars   map[string]expr.Lin
	arrays map[string][]expr.Lin
	ctx    *solver.Context
	steps  int
}

func (st *mstate) clone() *mstate {
	n := &mstate{
		vars:   make(map[string]expr.Lin, len(st.vars)),
		arrays: make(map[string][]expr.Lin, len(st.arrays)),
		ctx:    st.ctx.CloneInto(new(solver.Context)),
		steps:  st.steps,
	}
	for k, v := range st.vars {
		n.vars[k] = v
	}
	for k, v := range st.arrays {
		n.arrays[k] = append([]expr.Lin(nil), v...)
	}
	return n
}

// branch pairs a state with how its control flow ended.
type branch struct {
	st  *mstate
	ctl control
	ret expr.Lin
	err PathStatus // set to MemError when a memory violation killed it
	bad bool
}

// executor carries run-wide bookkeeping.
type executor struct {
	alloc  *expr.Alloc
	limits Limits
	result *result
	stats  *solver.Stats
}

// Run symbolically executes a program with the naive forking strategy.
// All paths of the run share a satisfiability memo cache: the naive
// executor re-decides near-identical constraint prefixes on every fork,
// which is exactly the redundancy the cache collapses.
func Run(prog *program, limits Limits, stats *solver.Stats) *result {
	limits = limits.withDefaults()
	if stats == nil {
		stats = &solver.Stats{}
	}
	ex := &executor{alloc: &expr.Alloc{}, limits: limits, result: &result{}, stats: stats}
	st := &mstate{
		vars:   make(map[string]expr.Lin),
		arrays: make(map[string][]expr.Lin),
		ctx:    solver.NewContext(stats),
	}
	st.ctx.SetCache(solver.NewSatCache())
	for name, v := range prog.Vars {
		st.vars[name] = expr.Const(v, 64)
	}
	symbolic := make(map[string]bool)
	for _, a := range prog.SymbolicArrays {
		symbolic[a] = true
	}
	for name, n := range prog.Arrays {
		cells := make([]expr.Lin, n)
		if init, ok := prog.Init[name]; ok {
			for i := range cells {
				if i < len(init) {
					cells[i] = expr.Const(init[i], 64)
				} else {
					cells[i] = expr.Const(0, 64)
				}
			}
		} else if symbolic[name] {
			for i := range cells {
				s := ex.alloc.Fresh(64)
				st.ctx.Add(expr.NewCmp(expr.Le, s, expr.Const(255, 64)))
				cells[i] = s
			}
		} else {
			for i := range cells {
				cells[i] = expr.Const(0, 64)
			}
		}
		st.arrays[name] = cells
	}
	for _, b := range ex.execStmts(st, prog.Body) {
		ex.finish(b)
	}
	return ex.result
}

func (ex *executor) finish(b branch) {
	o := outcome{
		Vars:   b.st.vars,
		Arrays: b.st.arrays,
		Ctx:    b.st.ctx,
		Steps:  b.st.steps,
	}
	switch {
	case b.bad:
		o.Status = b.err
	case b.ctl == ctlReturn:
		o.Status = Returned
		o.Ret = b.ret
	default:
		o.Status = OffEnd
	}
	ex.result.Paths = append(ex.result.Paths, o)
	if len(ex.result.Paths) >= ex.limits.MaxPaths {
		ex.result.Exhausted = true
	}
}

func (ex *executor) budget(st *mstate) bool {
	st.steps++
	ex.result.TotalSteps++
	if st.steps > ex.limits.MaxSteps || ex.result.TotalSteps > ex.limits.TotalSteps {
		ex.result.Exhausted = true
		return false
	}
	return true
}

func (ex *executor) stop() bool {
	return ex.result.Exhausted
}

// execStmts runs a statement list, returning all resulting branches.
func (ex *executor) execStmts(st *mstate, stmts []stmt) []branch {
	states := []branch{{st: st, ctl: ctlNormal}}
	for _, s := range stmts {
		var next []branch
		for _, b := range states {
			if b.ctl != ctlNormal || b.bad {
				next = append(next, b)
				continue
			}
			next = append(next, ex.execStmt(b.st, s)...)
		}
		states = next
	}
	return states
}

func (ex *executor) execStmt(st *mstate, s stmt) []branch {
	if !ex.budget(st) {
		return []branch{{st: st, bad: true, err: killed}}
	}
	switch v := s.(type) {
	case assign:
		var out []branch
		for _, ev := range ex.evalExpr(st, v.E) {
			if ev.bad {
				out = append(out, branch{st: ev.st, bad: true, err: ev.err})
				continue
			}
			ev.st.vars[v.Name] = ev.val
			out = append(out, branch{st: ev.st, ctl: ctlNormal})
		}
		return out

	case store:
		var out []branch
		for _, ev := range ex.evalExpr(st, v.E) {
			if ev.bad {
				out = append(out, branch{st: ev.st, bad: true, err: ev.err})
				continue
			}
			val := ev.val
			for _, ix := range ex.resolveIndex(ev.st, v.Array, v.Idx) {
				if ix.bad {
					out = append(out, branch{st: ix.st, bad: true, err: ix.err})
					continue
				}
				cells := ix.st.arrays[v.Array]
				cells[ix.idx] = val
				out = append(out, branch{st: ix.st, ctl: ctlNormal})
			}
		}
		return out

	case ifStmt:
		var out []branch
		for _, cb := range ex.evalCond(st, v.Cond) {
			if cb.bad {
				out = append(out, branch{st: cb.st, bad: true, err: cb.err})
				continue
			}
			out = append(out, ex.forkBranch(cb.st, cb.cond, v.Then, v.Else)...)
		}
		return out

	case while:
		return ex.execWhile(st, v)

	case switchStmt:
		return ex.execSwitch(st, v)

	case returnStmt:
		var out []branch
		for _, ev := range ex.evalExpr(st, v.E) {
			if ev.bad {
				out = append(out, branch{st: ev.st, bad: true, err: ev.err})
				continue
			}
			out = append(out, branch{st: ev.st, ctl: ctlReturn, ret: ev.val})
		}
		return out

	case breakStmt:
		return []branch{{st: st, ctl: ctlBreak}}

	case continueStmt:
		return []branch{{st: st, ctl: ctlContinue}}
	}
	panic(fmt.Sprintf("minic: unknown statement %T", s))
}

// forkBranch forks on cond: feasible positives run thenS, feasible
// negatives run elseS.
func (ex *executor) forkBranch(st *mstate, cond expr.Cond, thenS, elseS []stmt) []branch {
	var out []branch
	thenSt := st.clone()
	if thenSt.ctx.Add(cond) && (thenSt.ctx.PendingOrs() == 0 || thenSt.ctx.Sat()) {
		out = append(out, ex.execStmts(thenSt, thenS)...)
	}
	if st.ctx.Add(expr.NewNot(cond)) && (st.ctx.PendingOrs() == 0 || st.ctx.Sat()) {
		out = append(out, ex.execStmts(st, elseS)...)
	}
	return out
}

func (ex *executor) execWhile(st *mstate, w while) []branch {
	var done []branch
	frontier := []*mstate{st}
	for len(frontier) > 0 && !ex.stop() {
		var next []*mstate
		for _, s := range frontier {
			if !ex.budget(s) {
				done = append(done, branch{st: s, bad: true, err: killed})
				continue
			}
			for _, cb := range ex.evalCond(s, w.Cond) {
				if cb.bad {
					done = append(done, branch{st: cb.st, bad: true, err: cb.err})
					continue
				}
				// True branch iterates; false branch exits the loop.
				trueSt := cb.st.clone()
				if trueSt.ctx.Add(cb.cond) && (trueSt.ctx.PendingOrs() == 0 || trueSt.ctx.Sat()) {
					for _, b := range ex.execStmts(trueSt, w.Body) {
						switch {
						case b.bad:
							done = append(done, b)
						case b.ctl == ctlBreak:
							b.ctl = ctlNormal
							done = append(done, b)
						case b.ctl == ctlReturn:
							done = append(done, b)
						default: // normal or continue: next iteration
							next = append(next, b.st)
						}
					}
				}
				if cb.st.ctx.Add(expr.NewNot(cb.cond)) && (cb.st.ctx.PendingOrs() == 0 || cb.st.ctx.Sat()) {
					done = append(done, branch{st: cb.st, ctl: ctlNormal})
				}
			}
		}
		frontier = next
	}
	for _, s := range frontier { // budget exhausted mid-loop
		done = append(done, branch{st: s, bad: true, err: killed})
	}
	return done
}

func (ex *executor) execSwitch(st *mstate, sw switchStmt) []branch {
	var out []branch
	for _, ev := range ex.evalExpr(st, sw.E) {
		if ev.bad {
			out = append(out, branch{st: ev.st, bad: true, err: ev.err})
			continue
		}
		rem := ev.st // accumulates the negated case constraints
		matched := false
		for _, cs := range sw.Cases {
			cond := expr.NewCmp(expr.Eq, ev.val, expr.Const(cs.Val, 64))
			caseSt := rem.clone()
			if caseSt.ctx.Add(cond) && (caseSt.ctx.PendingOrs() == 0 || caseSt.ctx.Sat()) {
				out = append(out, ex.execStmts(caseSt, cs.Body)...)
			}
			if !rem.ctx.Add(expr.NewNot(cond)) {
				matched = true
				break
			}
		}
		if !matched {
			out = append(out, ex.execStmts(rem, sw.Default)...)
		}
	}
	return out
}

// evaluated expression value plus the state it belongs to (index forks can
// multiply states).
type evalRes struct {
	st  *mstate
	val expr.Lin
	bad bool
	err PathStatus
}

type idxRes struct {
	st  *mstate
	idx int
	bad bool
	err PathStatus
}

type condRes struct {
	st   *mstate
	cond expr.Cond
	bad  bool
	err  PathStatus
}

// evalExpr evaluates a value expression (no comparisons) and may fork on
// symbolic array indexes.
func (ex *executor) evalExpr(st *mstate, e expression) []evalRes {
	switch v := e.(type) {
	case lit:
		return []evalRes{{st: st, val: expr.Const(v.V, 64)}}
	case varRef:
		val, ok := st.vars[v.Name]
		if !ok {
			panic("minic: undefined variable " + v.Name)
		}
		return []evalRes{{st: st, val: val}}
	case index:
		var out []evalRes
		for _, ix := range ex.resolveIndex(st, v.Array, v.Idx) {
			if ix.bad {
				out = append(out, evalRes{st: ix.st, bad: true, err: ix.err})
				continue
			}
			out = append(out, evalRes{st: ix.st, val: ix.st.arrays[v.Array][ix.idx]})
		}
		return out
	case bin:
		switch v.Op {
		case opAdd, opSub:
			var out []evalRes
			for _, l := range ex.evalExpr(st, v.L) {
				if l.bad {
					out = append(out, l)
					continue
				}
				for _, r := range ex.evalExpr(l.st, v.R) {
					if r.bad {
						out = append(out, r)
						continue
					}
					if val, ok := combine(v.Op, l.val, r.val); ok {
						out = append(out, evalRes{st: r.st, val: val})
						continue
					}
					// Term shapes outside the linear language (const−sym,
					// sym−sym): concretize the right operand by forking, the
					// way naive engines concretize awkward symbolic values.
					for _, cr := range ex.concretize(r.st, r.val) {
						if cr.bad {
							out = append(out, cr)
							continue
						}
						val, ok := combine(v.Op, l.val, cr.val)
						if !ok {
							panic("minic: cannot linearize " + v.String())
						}
						out = append(out, evalRes{st: cr.st, val: val})
					}
				}
			}
			return out
		default:
			panic("minic: comparison used as value: " + v.String())
		}
	}
	panic(fmt.Sprintf("minic: unknown expression %T", e))
}

func combine(op binOp, l, r expr.Lin) (expr.Lin, bool) {
	lv, lConst := l.ConstVal()
	rv, rConst := r.ConstVal()
	switch {
	case lConst && rConst:
		if op == opAdd {
			return expr.Const(lv+rv, 64), true
		}
		return expr.Const(lv-rv, 64), true
	case !lConst && rConst:
		if op == opAdd {
			return l.AddConst(rv), true
		}
		return l.SubConst(rv), true
	case lConst && !rConst && op == opAdd:
		return r.AddConst(lv), true
	}
	return expr.Lin{}, false
}

// evalCond lowers a condition expression to a solver condition. Value
// sub-expressions may fork (array reads); boolean structure becomes one
// combined condition, matching how a real symbolic executor queries whole
// branch conditions.
func (ex *executor) evalCond(st *mstate, e expression) []condRes {
	b, ok := e.(bin)
	if !ok {
		// Scalar condition: e != 0.
		var out []condRes
		for _, ev := range ex.evalExpr(st, e) {
			if ev.bad {
				out = append(out, condRes{st: ev.st, bad: true, err: ev.err})
				continue
			}
			out = append(out, condRes{st: ev.st, cond: expr.NewCmp(expr.Ne, ev.val, expr.Const(0, 64))})
		}
		return out
	}
	switch b.Op {
	case opAnd, opOr:
		var out []condRes
		for _, l := range ex.evalCond(st, b.L) {
			if l.bad {
				out = append(out, l)
				continue
			}
			for _, r := range ex.evalCond(l.st, b.R) {
				if r.bad {
					out = append(out, r)
					continue
				}
				if b.Op == opAnd {
					out = append(out, condRes{st: r.st, cond: expr.NewAnd(l.cond, r.cond)})
				} else {
					out = append(out, condRes{st: r.st, cond: expr.NewOr(l.cond, r.cond)})
				}
			}
		}
		return out
	case opAdd, opSub:
		// Arithmetic used as condition: value != 0.
		var out []condRes
		for _, ev := range ex.evalExpr(st, e) {
			if ev.bad {
				out = append(out, condRes{st: ev.st, bad: true, err: ev.err})
				continue
			}
			out = append(out, condRes{st: ev.st, cond: expr.NewCmp(expr.Ne, ev.val, expr.Const(0, 64))})
		}
		return out
	default:
		var cmpOp expr.CmpOp
		switch b.Op {
		case opEq:
			cmpOp = expr.Eq
		case opNe:
			cmpOp = expr.Ne
		case opLt:
			cmpOp = expr.Lt
		case opLe:
			cmpOp = expr.Le
		case opGt:
			cmpOp = expr.Gt
		case opGe:
			cmpOp = expr.Ge
		}
		var out []condRes
		for _, l := range ex.evalExpr(st, b.L) {
			if l.bad {
				out = append(out, condRes{st: l.st, bad: true, err: l.err})
				continue
			}
			for _, r := range ex.evalExpr(l.st, b.R) {
				if r.bad {
					out = append(out, condRes{st: r.st, bad: true, err: r.err})
					continue
				}
				out = append(out, condRes{st: r.st, cond: expr.NewCmp(cmpOp, l.val, r.val)})
			}
		}
		return out
	}
}

// concretize forks a state over every feasible value of a symbolic term.
// The enumeration is capped: an unconstrained 64-bit symbol cannot be
// concretized, which mirrors real engines giving up on wild pointers.
func (ex *executor) concretize(st *mstate, val expr.Lin) []evalRes {
	if _, isConst := val.ConstVal(); isConst {
		return []evalRes{{st: st, val: val}}
	}
	dom := st.ctx.Domain(val)
	if dom.Size() > 4096 {
		panic(fmt.Sprintf("minic: domain too large to concretize (%d values)", dom.Size()))
	}
	var out []evalRes
	for _, iv := range dom.Intervals() {
		for c := iv.Lo; ; c++ {
			forked := st.clone()
			if forked.ctx.Add(expr.NewCmp(expr.Eq, val, expr.Const(c, 64))) {
				out = append(out, evalRes{st: forked, val: expr.Const(c, 64)})
			}
			if c == iv.Hi {
				break
			}
		}
	}
	return out
}

// resolveIndex concretizes an array index, forking per feasible value — the
// naive treatment of symbolic pointers that blows up path counts, plus an
// out-of-bounds check path (how Klee proves memory safety).
func (ex *executor) resolveIndex(st *mstate, array string, idxE expression) []idxRes {
	cells, ok := st.arrays[array]
	if !ok {
		panic("minic: undefined array " + array)
	}
	n := uint64(len(cells))
	var out []idxRes
	for _, ev := range ex.evalExpr(st, idxE) {
		if ev.bad {
			out = append(out, idxRes{st: ev.st, bad: true, err: ev.err})
			continue
		}
		if c, isConst := ev.val.ConstVal(); isConst {
			if c >= n {
				out = append(out, idxRes{st: ev.st, bad: true, err: MemError})
				continue
			}
			out = append(out, idxRes{st: ev.st, idx: int(c)})
			continue
		}
		// Out-of-bounds branch first: can the index escape the array?
		oob := ev.st.clone()
		if oob.ctx.Add(expr.NewCmp(expr.Ge, ev.val, expr.Const(n, 64))) && (oob.ctx.PendingOrs() == 0 || oob.ctx.Sat()) {
			out = append(out, idxRes{st: oob, bad: true, err: MemError})
		}
		// Fork per feasible in-bounds value.
		dom := ev.st.ctx.Domain(ev.val)
		for _, iv := range dom.Intervals() {
			for c := iv.Lo; c <= iv.Hi && c < n; c++ {
				forked := ev.st.clone()
				if forked.ctx.Add(expr.NewCmp(expr.Eq, ev.val, expr.Const(c, 64))) {
					out = append(out, idxRes{st: forked, idx: int(c)})
				}
				if c == iv.Hi {
					break
				}
			}
		}
	}
	return out
}
