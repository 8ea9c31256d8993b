package core

import (
	"fmt"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/sefl"
)

// evalError marks model-level evaluation failures that terminate a path
// (missing tags, memory-safety violations, unsupported expression shapes).
type evalError struct{ msg string }

func (e *evalError) Error() string { return e.msg }

func evalErrf(format string, args ...any) error {
	return &evalError{msg: fmt.Sprintf(format, args...)}
}

// location is a resolved l-value.
type location struct {
	isHdr bool
	off   int64
	size  int // header size when already allocated (0 when unknown)
	key   memory.MetaKey
}

// resolveOff turns a sefl.Off into an absolute bit offset using the packet's
// current tags.
func (r *run) resolveOff(st *state, o sefl.Off) (int64, error) {
	if o.Tag == "" {
		return o.Rel, nil
	}
	base, ok := st.Mem.Tag(o.Tag)
	if !ok {
		return 0, evalErrf("access through unset tag %q", o.Tag)
	}
	return base + o.Rel, nil
}

// resolveLV resolves an l-value against the current state and element.
func (r *run) resolveLV(st *state, elem *Element, lv sefl.LValue) (location, error) {
	switch v := lv.(type) {
	case sefl.Hdr:
		off, err := r.resolveOff(st, v.Off)
		if err != nil {
			return location{}, err
		}
		return location{isHdr: true, off: off, size: v.Size}, nil
	case sefl.Meta:
		inst := memory.GlobalScope
		if v.Pinned {
			inst = v.Instance
		} else if v.Local {
			inst = elem.Instance
		}
		return location{key: memory.MetaKey{Name: v.Name, Instance: inst}}, nil
	}
	return location{}, evalErrf("unknown l-value %T", lv)
}

// readLV reads the current value of an l-value.
func (r *run) readLV(st *state, elem *Element, lv sefl.LValue) (expr.Lin, error) {
	loc, err := r.resolveLV(st, elem, lv)
	if err != nil {
		return expr.Lin{}, err
	}
	if loc.isHdr {
		return st.Mem.ReadHdr(loc.off, loc.size)
	}
	return st.Mem.ReadMeta(loc.key)
}

// evalExpr lowers a SEFL expression to a linear term. hint supplies a width
// for adaptable-width literals (0 when unknown; such literals default to
// 64 bits).
func (r *run) evalExpr(st *state, elem *Element, e sefl.Expr, hint int) (expr.Lin, error) {
	switch v := e.(type) {
	case sefl.Num:
		w := v.W
		if w == 0 {
			w = hint
		}
		if w == 0 {
			w = 64
		}
		return expr.Const(v.V, w), nil
	case sefl.Symbolic:
		w := v.W
		if w == 0 {
			w = hint
		}
		if w == 0 {
			w = 64
		}
		return r.alloc.Fresh(w), nil
	case sefl.Ref:
		return r.readLV(st, elem, v.LV)
	case sefl.TagVal:
		base, ok := st.Mem.Tag(v.Tag)
		if !ok {
			return expr.Lin{}, evalErrf("TagVal of unset tag %q", v.Tag)
		}
		return expr.Const(uint64(base+v.Rel), 64), nil
	case sefl.Add:
		return r.evalArith(st, elem, v.A, v.B, hint, false)
	case sefl.Sub:
		return r.evalArith(st, elem, v.A, v.B, hint, true)
	}
	return expr.Lin{}, evalErrf("unknown expression %T", e)
}

// evalArith handles A+B and A-B under SEFL's linearity restriction.
func (r *run) evalArith(st *state, elem *Element, a, b sefl.Expr, hint int, sub bool) (expr.Lin, error) {
	la, err := r.evalExpr(st, elem, a, hint)
	if err != nil {
		return expr.Lin{}, err
	}
	lb, err := r.evalExpr(st, elem, b, la.Width)
	if err != nil {
		return expr.Lin{}, err
	}
	va, aConst := la.ConstVal()
	vb, bConst := lb.ConstVal()
	switch {
	case aConst && bConst:
		w := la.Width
		if lb.Width > w {
			w = lb.Width
		}
		if sub {
			return expr.Const(va-vb, w), nil
		}
		return expr.Const(va+vb, w), nil
	case !aConst && bConst:
		if sub {
			return la.SubConst(vb), nil
		}
		return la.AddConst(vb), nil
	case aConst && !bConst:
		if sub {
			// c - sym needs a -1 coefficient, outside SEFL's term language.
			return expr.Lin{}, evalErrf("unsupported expression: constant minus symbolic value")
		}
		return lb.AddConst(va), nil
	default:
		return expr.Lin{}, evalErrf("unsupported expression: symbolic plus symbolic")
	}
}

// evalCond lowers a SEFL condition to a solver condition.
func (r *run) evalCond(st *state, elem *Element, c sefl.Cond) (expr.Cond, error) {
	switch v := c.(type) {
	case sefl.CBool:
		return expr.Bool(v), nil
	case sefl.Cmp:
		l, err := r.evalExpr(st, elem, v.L, 0)
		if err != nil {
			return nil, err
		}
		rr, err := r.evalExpr(st, elem, v.R, l.Width)
		if err != nil {
			return nil, err
		}
		l, rr, err = coerceWidths(l, rr)
		if err != nil {
			return nil, err
		}
		return expr.NewCmp(v.Op, l, rr), nil
	case sefl.Prefix:
		w := v.Width
		if w == 0 {
			w = 32
		}
		l, err := r.evalExpr(st, elem, v.E, w)
		if err != nil {
			return nil, err
		}
		if l.Width != w {
			return nil, evalErrf("%d-bit prefix read a %d-bit value", w, l.Width)
		}
		return expr.NewPrefix(l, v.Value, v.Len), nil
	case sefl.MetaPresent:
		loc, err := r.resolveLV(st, elem, v.M)
		if err != nil {
			return nil, err
		}
		return expr.Bool(st.Mem.MetaExists(loc.key)), nil
	case sefl.TagPresent:
		_, ok := st.Mem.Tag(v.Tag)
		return expr.Bool(ok), nil
	case sefl.CAnd:
		out := make([]expr.Cond, 0, len(v.Cs))
		for _, sub := range v.Cs {
			lc, err := r.evalCond(st, elem, sub)
			if err != nil {
				return nil, err
			}
			out = append(out, lc)
		}
		return expr.NewAnd(out...), nil
	case sefl.COr:
		out := make([]expr.Cond, 0, len(v.Cs))
		for _, sub := range v.Cs {
			lc, err := r.evalCond(st, elem, sub)
			if err != nil {
				return nil, err
			}
			out = append(out, lc)
		}
		return expr.NewOr(out...), nil
	case sefl.Table:
		if err := v.Check(); err != nil {
			return nil, evalErrf("%v", err)
		}
		return r.evalCond(st, elem, v.Or())
	case sefl.CNot:
		lc, err := r.evalCond(st, elem, v.C)
		if err != nil {
			return nil, err
		}
		return expr.NewNot(lc), nil
	}
	return nil, evalErrf("unknown condition %T", c)
}

// coerceWidths reconciles operand widths: a concrete operand adopts the
// symbolic operand's width (value permitting); two symbolic operands must
// already agree.
func coerceWidths(l, r expr.Lin) (expr.Lin, expr.Lin, error) {
	if l.Width == r.Width {
		return l, r, nil
	}
	if lv, ok := l.ConstVal(); ok {
		if lv&^expr.Mask(r.Width) != 0 {
			return l, r, evalErrf("constant %d does not fit in %d bits", lv, r.Width)
		}
		return expr.Const(lv, r.Width), r, nil
	}
	if rv, ok := r.ConstVal(); ok {
		if rv&^expr.Mask(l.Width) != 0 {
			return l, r, evalErrf("constant %d does not fit in %d bits", rv, l.Width)
		}
		return l, expr.Const(rv, l.Width), nil
	}
	return l, r, evalErrf("width mismatch: %d-bit vs %d-bit symbolic operands", l.Width, r.Width)
}
