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
// (kept behind Options.ASTInterp as the reference interpreter). The loop
// reproduces the AST interpreter's observable behavior exactly — same
// results, statistics, trace lines, failure messages, and the same global
// fresh-symbol allocation order — which the differential property tests in
// internal/prog pin down.
//
// The execution discipline is the AST interpreter's: state-major. A state
// runs its ops in order; at an If each successor runs its arm and then the
// rest of the program (the segment continuations, prog.Program.Cont) before
// the next sibling starts. Linear ops mutate states in place, and what every
// visit would otherwise build again — successor-port slices, trace lines,
// constraint-failure messages — the program holds once, so the hot path
// allocates nothing.
//
// A clone is made only for a side that may live. At an If the walk first
// asks solver.Context.Refutes, a read-only domain test, whether the guard or
// its negation is refuted — most are, since egress code re-asserts table
// guards the path already decided; then the live side runs on the state
// itself and the dead side is only counted (oneSided). Only a guard neither
// side of which is refuted forks. depart (engine.go) does the same for the
// guard an output port's program opens with.

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

// portCode looks up the code attached to a port once: its compiled program,
// counted as a program-cache hit or miss, or, behind Options.ASTInterp, the
// source the AST interpreter walks (p nil). ok is false when the port has no
// code (neither specific nor wildcard).
func (r *run) portCode(at *port) (p *prog.Program, src sefl.Instr, ok bool) {
	if r.opts.ASTInterp {
		c := at.elem.entry(at.num, at.out).code
		if c == nil {
			return nil, nil, false
		}
		return nil, c.src, true
	}
	p, ok, hit := at.elem.codeFor(at.num, at.out)
	if !ok {
		return nil, nil, false
	}
	if hit {
		r.inst.progHits.Inc()
	} else {
		r.inst.progMisses.Inc()
	}
	return p, nil, true
}

// execCode runs a port's code, as portCode found it, on one state,
// appending the successor states to out.
func (r *run) execCode(out []*state, st *state, elem *Element, p *prog.Program, src sefl.Instr) []*state {
	if p == nil {
		return append(out, r.exec(nil, st, elem, src, nil)...)
	}
	t := r.inst.progExecNs.Start()
	out = r.runProgram(out, st, p)
	t.Stop()
	return out
}

// runProgram runs a compiled program on one state, appending its successor
// states to out in the same canonical order as the AST interpreter.
func (r *run) runProgram(out []*state, st *state, p *prog.Program) []*state {
	return r.runSeg(out, p, p.Entry, p.Seg(p.Entry).Lo, st)
}

// runSeg runs one state from op idx of a segment to the end of the program,
// appending its successor states to out in the canonical order. It is
// state-major: each successor of an If or For runs the rest of the program
// before the next sibling starts. It recurses only where a state forks; at
// a segment's end it follows the segment's continuation.
func (r *run) runSeg(out []*state, p *prog.Program, seg prog.SegID, idx int32, s *state) []*state {
walk:
	for {
		for hi := p.Seg(seg).Hi; idx < hi; idx++ {
			if s.Status == Failed || s.forwarding() {
				return append(out, s)
			}
			op := &p.Ops[idx]
			switch op.Kind {
			case prog.OpIf:
				if s.traceOn && op.Ins != nil {
					s.pushTrace(p.TraceLine(idx))
				}
				r.env.st = s
				cond, err := prog.EvalCond(&r.env, op.C)
				if err != nil {
					s.fail(err.Error())
					return append(out, s)
				}
				neg := expr.NewNot(cond)
				switch {
				case s.Ctx.Refutes(cond):
					seg, cond = op.Else, neg
				case s.Ctx.Refutes(neg):
					seg = op.Then
				default:
					return r.fork(out, p, op, cond, neg, s)
				}
				if !r.oneSided(s, cond) {
					return out
				}
				idx = p.Seg(seg).Lo
				continue walk
			case prog.OpFor:
				if s.traceOn {
					s.pushTrace(p.TraceLine(idx))
				}
				for _, fs := range r.runFor(p, op, s) {
					out = r.runSeg(out, p, seg, idx+1, fs)
				}
				return out
			default:
				r.applyLinear(p, idx, s)
			}
		}
		var ok bool
		if seg, idx, ok = p.Cont(seg); !ok {
			return append(out, s)
		}
	}
}

// applyLinear executes the non-forking op at index i, mutating the state in
// place.
func (r *run) applyLinear(p *prog.Program, i int32, s *state) {
	op := &p.Ops[i]
	if s.traceOn {
		s.pushTrace(p.TraceLine(i))
	}
	env := &r.env
	env.st = s
	switch op.Kind {
	case prog.OpNoOp:

	case prog.OpConstrain:
		cond, err := prog.EvalCond(env, op.C)
		constrain(s, p, i, cond, err)

	case prog.OpForward, prog.OpFork:
		if len(op.Ports) == 0 {
			s.fail("Fork with no ports")
			return
		}
		// The program's slice is safe to hand out: states never mutate
		// outPorts in place (depart nils it, clone copies it).
		s.outPorts = op.Ports

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

// constrain finishes the Constrain op at index i on s, given what its
// condition evaluated to: s fails when the evaluation failed or the context
// refutes the condition.
func constrain(s *state, p *prog.Program, i int32, cond expr.Cond, err error) {
	switch {
	case err != nil:
		s.fail(err.Error())
	case !s.Ctx.Add(cond) || (s.Ctx.PendingOrs() > 0 && !s.Ctx.Sat()):
		s.fail(p.ConstrainFailMsg(i))
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

// fork splits s on an OpIf's symbolic guard, neither side of which Refutes
// could refute: each feasible successor runs its arm and then the arm's
// continuation, the Then side (on a clone) to completion before the Else
// side (on s) starts. neg is the guard's negation.
func (r *run) fork(out []*state, p *prog.Program, op *prog.Op, cond, neg expr.Cond, s *state) []*state {
	thenSt := s.clone()
	if r.assume(thenSt, cond) {
		out = r.runSeg(out, p, op.Then, p.Seg(op.Then).Lo, thenSt)
	}
	if r.assume(s, neg) {
		out = r.runSeg(out, p, op.Else, p.Seg(op.Else).Lo, s)
	}
	return out
}

// assume asserts a branch's condition on the state that runs it, counting
// the branch as pruned when the context refutes it. It reports whether the
// state survives to run the branch.
func (r *run) assume(s *state, cond expr.Cond) bool {
	if s.Ctx.Add(cond) && (s.Ctx.PendingOrs() == 0 || s.Ctx.Sat()) {
		return true
	}
	r.stats.Pruned++
	return false
}

// runFor runs a For loop on one state and returns the states it yields, in
// order: the metadata keys matching the pattern are snapshot, then each
// key's compiled body runs in key order, state-major — a state the body
// forks into runs every remaining key before its next sibling starts; runSeg
// continues each yielded state in turn. One slice per visit holds the
// states, reused while the bodies do not fork.
func (r *run) runFor(p *prog.Program, op *prog.Op, s *state) []*state {
	if op.For.Re == nil {
		s.fail(op.For.Err)
		return []*state{s}
	}
	keys := s.Mem.MetaKeysMatching(op.For.Re, p.Instance)
	return r.forKeys(make([]*state, 0, 1), p, op, keys, s)
}

// forKeys runs the For op's bodies for keys on s, appending the states they
// yield to out.
func (r *run) forKeys(out []*state, p *prog.Program, op *prog.Op, keys []memory.MetaKey, s *state) []*state {
	for i, key := range keys {
		if s.Status == Failed || s.forwarding() {
			break
		}
		bp := p.ForBody(op.For, key)
		n := len(out)
		out = r.runProgram(out, s, bp)
		if len(out) == n+1 {
			s = out[n]
			out = out[:n]
			continue
		}
		// The body forked (or pruned s): each successor, in order, runs the
		// remaining keys. Their states append past the successors, which
		// then close the gap.
		m := len(out)
		for j := n; j < m; j++ {
			out = r.forKeys(out, p, op, keys[i+1:], out[j])
		}
		return append(out[:n], out[m:]...)
	}
	return append(out, s)
}

// oneSided settles a branch one side of which Refutes refuted — a constant
// guard (a MetaPresent test, say) or a symbolic one the domains decide — on
// s itself instead of on a clone: it counts the dead side's Add and prune
// exactly as the refuted Add on a clone would have, then asserts live, the
// live side's condition, on s. Stats, pruned counts and the context
// fingerprint come out as forking's. It reports whether s survives to run
// the live side.
func (r *run) oneSided(s *state, live expr.Cond) bool {
	if !s.Ctx.Unsat() {
		r.solverStats.Adds++ // the dead side's Add, refuted on its own context
	}
	r.stats.Pruned++
	return r.assume(s, live)
}
