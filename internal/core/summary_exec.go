package core

import (
	"symnet/internal/expr"
	"symnet/internal/obs"
	"symnet/internal/prog"
)

// This file is the summary executor: instead of dispatching the compiled IR
// segment-by-segment per visit, it walks the element's pre-built decision
// DAG (prog.Summarize) — each root-to-leaf path is one guarded update row,
// and the walk applies exactly the row the state's constraints select,
// forking at branch nodes just like the IR's OpIf and running a For node's
// loop through the IR's own loop (runFor). Observable behavior is
// byte-identical to the IR path by construction: steps run through the same
// evaluators and solver calls in the same per-path order and reuse
// applyLinearRest for their semantics; the wins are the per-visit costs the
// summary pays once — shared successor-port slices, once-ever renders of
// trace lines and constraint-failure messages (the IR re-renders the
// failing guard's full table per visit), and no segment bookkeeping.

// applyNode walks the DAG from one node, appending the successor states to
// out in the IR executor's canonical order. A state that fails or sets its
// output ports mid-row is done — the IR skips every remaining op for such
// states, so the walk appends it as-is (position in the output order is
// preserved by the recursion, matching runSeg's pass-through).
func (r *run) applyNode(out []*state, sum *prog.Summary, ni int32, s *state) []*state {
	for {
		n := &sum.Nodes[ni]
		for i := n.Lo; i < n.Hi; i++ {
			if s.Status == Failed || s.forwarding() {
				return append(out, s)
			}
			r.applySumStep(sum, i, s)
		}
		if n.Term == prog.TermEnd || s.Status == Failed || s.forwarding() {
			return append(out, s)
		}
		switch n.Term {
		case prog.TermJump:
			ni = n.Next
		case prog.TermFor:
			if s.traceOn {
				s.pushTrace(sum.TraceLine(n.Hi))
			}
			for _, fs := range r.runFor(sum.Prog, &sum.Prog.Ops[n.Hi], s) {
				out = r.applyNode(out, sum, n.Next, fs)
			}
			return out
		case prog.TermBranch:
			op := &sum.Prog.Ops[n.Hi]
			if s.traceOn && op.Ins != nil {
				s.pushTrace(sum.TraceLine(n.Hi))
			}
			r.env.st = s
			cond, err := prog.EvalCond(&r.env, op.C)
			if err != nil {
				s.fail(err.Error())
				return append(out, s)
			}
			if b, ok := cond.(expr.Bool); ok {
				if !r.constBranch(s) {
					return out
				}
				if b {
					ni = n.Then
				} else {
					ni = n.Else
				}
				continue
			}
			thenSt := s.clone()
			elseSt := s
			if thenSt.Ctx.Add(cond) && (thenSt.Ctx.PendingOrs() == 0 || thenSt.Ctx.Sat()) {
				out = r.applyNode(out, sum, n.Then, thenSt)
			} else {
				r.stats.Pruned++
			}
			if elseSt.Ctx.Add(expr.NewNot(cond)) && (elseSt.Ctx.PendingOrs() == 0 || elseSt.Ctx.Sat()) {
				out = r.applyNode(out, sum, n.Else, elseSt)
			} else {
				r.stats.Pruned++
			}
			return out
		}
	}
}

// applySumStep executes the linear op at index i, mutating the state in
// place. It mirrors applyLinear exactly, with the per-visit allocations
// replaced by what the program and the summary hold once for all visits.
func (r *run) applySumStep(sum *prog.Summary, i int32, s *state) {
	op := &sum.Prog.Ops[i]
	if s.traceOn {
		s.pushTrace(sum.TraceLine(i))
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
			s.fail(sum.ConstrainFailMsg(i))
		}

	case prog.OpForward, prog.OpFork:
		if len(op.Ports) == 0 {
			s.fail("Fork with no ports")
			return
		}
		// The program's slice is safe to hand out: states never mutate
		// outPorts in place (depart nils it, clone copies it).
		s.outPorts = op.Ports

	default:
		r.applyLinearRest(op, s)
	}
}

// elemHits maintains the per-element summary-hit counters
// ("summary.elem_hits.<element>"), resolved lazily since element names are
// only known at visit time. One run owns it; the counters are the
// registry's, shared with concurrent batch jobs, and atomic.
type elemHits struct {
	reg *obs.Registry
	m   map[string]*obs.Counter
}

func (h *elemHits) inc(elem string) {
	if h == nil {
		return
	}
	c, ok := h.m[elem]
	if !ok {
		c = h.reg.Counter("summary.elem_hits." + elem)
		h.m[elem] = c
	}
	c.Inc()
}
