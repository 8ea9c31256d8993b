package core

import (
	"fmt"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/prog"
	"symnet/internal/sefl"
)

// This file is the compiled-program executor: a small dispatch loop over the
// flat IR of internal/prog that replaces the recursive AST walk of exec
// (kept behind Options.ASTInterp as the reference interpreter). It runs the
// programs the summary layer cannot summarize (summary_exec.go), and every
// program under the reference field Options.IRExec. The loop
// reproduces the AST interpreter's observable behavior exactly — same
// results, statistics, trace lines, failure messages, and the same global
// fresh-symbol allocation order — which the differential property tests in
// internal/prog pin down.
//
// The execution discipline mirrors the AST recursion: a segment applies
// each op to every live state before moving to the next op
// (instruction-major), and control ops (branch, for, sub-segment) run their
// nested segments to completion per state (state-major across the nesting
// boundary), exactly like exec's Block loop and If/For recursion. Linear
// ops mutate states in place, so the hot path allocates nothing — the AST
// walker allocated a successor slice per instruction per state.

// progEnv adapts one path state to the evaluator's Env interface. Each run
// owns one (run.env), re-pointed at the current state before every
// evaluation, so evaluation costs no allocation.
type progEnv struct {
	st *state
	r  *run
}

func (e *progEnv) ReadHdr(off int64, size int) (expr.Lin, error) { return e.st.Mem.ReadHdr(off, size) }
func (e *progEnv) ReadMeta(key memory.MetaKey) (expr.Lin, error) { return e.st.Mem.ReadMeta(key) }
func (e *progEnv) Tag(name string) (int64, bool)                 { return e.st.Mem.Tag(name) }
func (e *progEnv) MetaExists(key memory.MetaKey) bool            { return e.st.Mem.MetaExists(key) }
func (e *progEnv) Fresh(width int) expr.Lin                      { return e.r.alloc.Fresh(width) }
func (e *progEnv) OrTreeGuards() bool                            { return e.r.opts.OrTreeGuards }

// execPort runs the code attached to a port on one state, appending the
// successor states to out: the port's summary when its program has one, the
// compiled-IR dispatch loop when it is unsummarizable (or always, under the
// reference field Options.IRExec), the AST interpreter behind
// Options.ASTInterp. ok is false when the port has no code (neither
// specific nor wildcard).
func (r *run) execPort(out []*state, st *state, elem *Element, port int, outSide bool) ([]*state, bool) {
	if r.opts.ASTInterp {
		var code sefl.Instr
		var ok bool
		if outSide {
			code, ok = elem.outCodeFor(port)
		} else {
			code, ok = elem.inCodeFor(port)
		}
		if !ok {
			return out, false
		}
		return append(out, r.exec(st, elem, code)...), true
	}
	c, ok, hit := elem.codeFor(port, outSide)
	if !ok {
		return out, false
	}
	if hit {
		r.inst.progHits.Inc()
	} else {
		r.inst.progMisses.Inc()
	}
	if !r.opts.IRExec {
		sum, built := c.summary()
		if built {
			if sum.OK() {
				r.inst.sumBuilt.Inc()
			} else {
				r.inst.sumUnsum.Inc()
			}
		}
		if sum.OK() {
			r.inst.sumHits.Inc()
			r.inst.elemHits.inc(elem.Name)
			t := r.inst.sumApplyNs.Start()
			out = r.applyNode(out, sum, sum.Root(), st)
			t.Stop()
			return out, true
		}
		r.inst.sumFallbacks.Inc()
	}
	t := r.inst.progExecNs.Start()
	out = append(out, r.runProgram(st, c.prog)...)
	t.Stop()
	return out, true
}

// runProgram executes a compiled program on one state, returning successor
// states in the same canonical order as the AST interpreter.
func (r *run) runProgram(st *state, p *prog.Program) []*state {
	return r.runSeg(p, p.Entry, []*state{st})
}

// runSeg applies a segment's ops instruction-major over the live states.
func (r *run) runSeg(p *prog.Program, id prog.SegID, states []*state) []*state {
	seg := p.Seg(id)
	for i := seg.Lo; i < seg.Hi; i++ {
		op := &p.Ops[i]
		switch op.Kind {
		case prog.OpIf, prog.OpFor, prog.OpSub:
			var out []*state
			for _, s := range states {
				if s.Status == Failed || s.forwarding() {
					out = append(out, s)
					continue
				}
				out = append(out, r.applyControl(p, op, s)...)
			}
			states = out
		default:
			for _, s := range states {
				if s.Status == Failed || s.forwarding() {
					continue
				}
				r.applyLinear(p, op, s)
			}
		}
	}
	return states
}

// applyLinear executes one non-forking op, mutating the state in place. The
// three op kinds whose per-visit costs the summary layer hoists (Constrain's
// failure render, Forward/Fork's port-slice allocation) are handled inline;
// everything else shares applyLinearRest with the summary executor
// (summary_exec.go), so linear-op semantics live in exactly one place.
func (r *run) applyLinear(p *prog.Program, op *prog.Op, s *state) {
	if s.traceOn {
		s.pushTrace(fmt.Sprintf("%s: %s", p.Elem, op.Ins))
	}
	r.env.st = s
	switch op.Kind {
	case prog.OpConstrain:
		cond, err := prog.EvalCond(&r.env, op.C)
		if err != nil {
			s.fail(err.Error())
			return
		}
		if !s.Ctx.Add(cond) || (s.Ctx.PendingOrs() > 0 && !s.Ctx.Sat()) {
			// The failure message renders the original SEFL condition, like
			// the AST interpreter — lazily, since guards can be enormous.
			s.fail(fmt.Sprintf("constraint unsatisfiable: %s", op.Ins.(sefl.Constrain).C))
		}

	case prog.OpForward:
		s.outPorts = []int{op.Port}

	case prog.OpFork:
		if len(op.Ports) == 0 {
			s.fail("Fork with no ports")
			return
		}
		s.outPorts = append([]int(nil), op.Ports...)

	default:
		r.applyLinearRest(op, s)
	}
}

// applyLinearRest executes the linear op kinds whose semantics the IR and
// summary executors share verbatim, on the state r.env points at.
func (r *run) applyLinearRest(op *prog.Op, s *state) {
	env := &r.env
	switch op.Kind {
	case prog.OpNoOp:

	case prog.OpAllocate:
		if op.LV.Err != "" {
			s.fail(op.LV.Err)
			return
		}
		if op.LV.IsHdr {
			off, err := prog.ResolveOff(env, op.LV)
			if err != nil {
				s.fail(err.Error())
				return
			}
			if err := s.Mem.AllocateHdr(off, op.Size); err != nil {
				s.fail(err.Error())
			}
		} else if err := s.Mem.AllocateMeta(op.LV.Key, op.Size); err != nil {
			s.fail(err.Error())
		}

	case prog.OpDeallocate:
		if op.LV.Err != "" {
			s.fail(op.LV.Err)
			return
		}
		if op.LV.IsHdr {
			off, err := prog.ResolveOff(env, op.LV)
			if err != nil {
				s.fail(err.Error())
				return
			}
			if err := s.Mem.DeallocateHdr(off, op.Size); err != nil {
				s.fail(err.Error())
			}
		} else if err := s.Mem.DeallocateMeta(op.LV.Key, op.Size); err != nil {
			s.fail(err.Error())
		}

	case prog.OpAssign:
		r.applyAssign(op, s)

	case prog.OpCreateTag:
		val, err := prog.EvalExpr(env, op.E, 64)
		if err != nil {
			s.fail(err.Error())
			return
		}
		cv, ok := val.ConstVal()
		if !ok {
			s.fail(op.Msg)
			return
		}
		s.Mem.CreateTag(op.Tag, int64(cv))

	case prog.OpDestroyTag:
		if err := s.Mem.DestroyTag(op.Tag); err != nil {
			s.fail(err.Error())
		}

	case prog.OpFail:
		s.fail(op.Msg)

	case prog.OpUnknown:
		s.fail(op.Msg)

	default:
		s.fail(fmt.Sprintf("unknown op kind %d", op.Kind))
	}
}

// applyAssign mirrors the AST interpreter's Assign: resolve the l-value,
// evaluate under the width hint, adapt constant widths, store.
func (r *run) applyAssign(op *prog.Op, s *state) {
	env := &r.env
	if op.LV.Err != "" {
		s.fail(op.LV.Err)
		return
	}
	var off int64
	hint := 0
	if op.LV.IsHdr {
		var err error
		off, err = prog.ResolveOff(env, op.LV)
		if err != nil {
			s.fail(err.Error())
			return
		}
		hint = op.LV.Size
	} else if w, ok := s.Mem.MetaWidth(op.LV.Key); ok {
		hint = w
	}
	val, err := prog.EvalExpr(env, op.E, hint)
	if err != nil {
		s.fail(err.Error())
		return
	}
	if hint != 0 && val.Width != hint {
		if cv, isConst := val.ConstVal(); isConst {
			val = expr.Const(cv, hint)
		} else {
			s.fail(fmt.Sprintf("assign width mismatch: %d-bit value into %d-bit field", val.Width, hint))
			return
		}
	}
	if op.LV.IsHdr {
		if err := s.Mem.AssignHdr(off, op.LV.Size, val); err != nil {
			s.fail(err.Error())
		}
	} else if err := s.Mem.AssignMeta(op.LV.Key, val); err != nil {
		s.fail(err.Error())
	}
}

// applyControl executes one forking op for one state, running nested
// segments to completion (the AST recursion's order).
func (r *run) applyControl(p *prog.Program, op *prog.Op, s *state) []*state {
	if s.traceOn && op.Ins != nil {
		s.pushTrace(fmt.Sprintf("%s: %s", p.Elem, op.Ins))
	}
	switch op.Kind {
	case prog.OpIf:
		r.env.st = s
		cond, err := prog.EvalCond(&r.env, op.C)
		if err != nil {
			s.fail(err.Error())
			return []*state{s}
		}
		if b, ok := cond.(expr.Bool); ok {
			if !r.constBranch(s) {
				return nil
			}
			if b {
				return r.runSeg(p, op.Then, []*state{s})
			}
			return r.runSeg(p, op.Else, []*state{s})
		}
		thenSt := s.clone()
		elseSt := s
		var out []*state
		if thenSt.Ctx.Add(cond) && (thenSt.Ctx.PendingOrs() == 0 || thenSt.Ctx.Sat()) {
			out = append(out, r.runSeg(p, op.Then, []*state{thenSt})...)
		} else {
			r.stats.Pruned++
		}
		if elseSt.Ctx.Add(expr.NewNot(cond)) && (elseSt.Ctx.PendingOrs() == 0 || elseSt.Ctx.Sat()) {
			out = append(out, r.runSeg(p, op.Else, []*state{elseSt})...)
		} else {
			r.stats.Pruned++
		}
		return out

	case prog.OpFor:
		return r.runFor(p, op, s)

	case prog.OpSub:
		return r.runSeg(p, op.Sub, []*state{s})
	}
	s.fail(fmt.Sprintf("unknown control op kind %d", op.Kind))
	return []*state{s}
}

// runFor runs a For loop on one state: the metadata keys matching the
// pattern are snapshot, then each key's compiled body runs on every live
// state, key-major, each state's body to completion before the next state's
// (the AST recursion's order). Both executors use it: the IR's applyControl
// and the summary's TermFor node.
func (r *run) runFor(p *prog.Program, op *prog.Op, s *state) []*state {
	if op.For.Re == nil {
		s.fail(op.For.Err)
		return []*state{s}
	}
	keys := s.Mem.MetaKeysMatching(op.For.Re, p.Instance)
	states := []*state{s}
	for _, k := range keys {
		bp := p.ForBody(op.For, k)
		if len(states) == 1 {
			// One state: the body over the list is the body on the state
			// (runSeg passes a finished state through, as the loop below
			// does), and a body that does not fork hands the list back.
			states = r.runSeg(bp, bp.Entry, states)
			continue
		}
		var out []*state
		for _, s2 := range states {
			if s2.Status == Failed || s2.forwarding() {
				out = append(out, s2)
				continue
			}
			out = append(out, r.runSeg(bp, bp.Entry, []*state{s2})...)
		}
		states = out
	}
	return states
}

// constBranch settles a branch whose guard evaluated to a constant (a
// MetaPresent test, say) on s itself instead of on a clone: it counts and
// prunes the dead side exactly as asserting the false constant on a clone
// would, then asserts the true constant — what the live side's Add would be,
// whichever side it is — on s. Stats, pruned counts and the context
// fingerprint come out as the cloning path's. It reports whether s survives
// to run the live side. Both executors (applyControl, applyNode) use it.
func (r *run) constBranch(s *state) bool {
	if !s.Ctx.Unsat() {
		s.Ctx.Stats().Adds++ // the dead side's Add, refuted on its own context
	}
	r.stats.Pruned++
	if s.Ctx.Add(expr.Bool(true)) && (s.Ctx.PendingOrs() == 0 || s.Ctx.Sat()) {
		return true
	}
	r.stats.Pruned++
	return false
}
