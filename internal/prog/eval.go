package prog

import (
	"errors"
	"fmt"

	"symnet/internal/expr"
	"symnet/internal/memory"
)

// Env supplies the runtime facilities compiled-expression evaluation needs:
// packet memory reads, tag resolution, and fresh-symbol allocation. The
// engine adapts its per-path state to this interface; compile-time constant
// folding passes nil (static nodes never touch it).
type Env interface {
	ReadHdr(off int64, size int) (expr.Lin, error)
	ReadMeta(key memory.MetaKey) (expr.Lin, error)
	Tag(name string) (int64, bool)
	MetaExists(key memory.MetaKey) bool
	Fresh(width int) expr.Lin
}

// evalErrf builds a model-level evaluation failure. Formats are kept in
// lockstep with the AST interpreter (internal/core/eval.go) so failed paths
// carry byte-identical messages; the differential tests pin this.
func evalErrf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// ResolveOff turns a pre-resolved l-value's offset into an absolute bit
// offset, consulting the packet's tags only when the compile-time fold could
// not (Tag != "").
func ResolveOff(env Env, lv LV) (int64, error) {
	if lv.Tag == "" {
		return lv.Rel, nil
	}
	base, ok := env.Tag(lv.Tag)
	if !ok {
		return 0, evalErrf("access through unset tag %q", lv.Tag)
	}
	return base + lv.Rel, nil
}

// readLV reads the current value of a pre-resolved l-value.
func readLV(env Env, lv LV) (expr.Lin, error) {
	if lv.Err != "" {
		return expr.Lin{}, errors.New(lv.Err)
	}
	if lv.IsHdr {
		off, err := ResolveOff(env, lv)
		if err != nil {
			return expr.Lin{}, err
		}
		return env.ReadHdr(off, lv.Size)
	}
	return env.ReadMeta(lv.Key)
}

// EvalExpr lowers a compiled expression to a linear term; hint supplies a
// width for adaptable-width literals (0 when unknown; such literals default
// to 64 bits). Nodes folded at compile time return their precomputed value.
func EvalExpr(env Env, e *CExpr, hint int) (expr.Lin, error) {
	if e.Folded != nil {
		return *e.Folded, nil
	}
	if e.Err != "" {
		return expr.Lin{}, errors.New(e.Err)
	}
	switch e.Kind {
	case eNum:
		w := e.W
		if w == 0 {
			w = hint
		}
		if w == 0 {
			w = 64
		}
		return expr.Const(e.V, w), nil
	case eSym:
		w := e.W
		if w == 0 {
			w = hint
		}
		if w == 0 {
			w = 64
		}
		return env.Fresh(w), nil
	case eRef:
		return readLV(env, e.LV)
	case eTagVal:
		base, ok := env.Tag(e.Tag)
		if !ok {
			return expr.Lin{}, evalErrf("TagVal of unset tag %q", e.Tag)
		}
		return expr.Const(uint64(base+e.Rel), 64), nil
	case eArith:
		return evalArith(env, e.A, e.B, hint, e.Minus)
	}
	return expr.Lin{}, evalErrf("unknown compiled expression kind %d", e.Kind)
}

// evalArith handles A+B and A-B under SEFL's linearity restriction,
// mirroring the AST interpreter.
func evalArith(env Env, a, b *CExpr, hint int, sub bool) (expr.Lin, error) {
	la, err := EvalExpr(env, a, hint)
	if err != nil {
		return expr.Lin{}, err
	}
	lb, err := EvalExpr(env, b, la.Width)
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

// EvalCond lowers a compiled condition to a solver condition. Conditions
// evaluated at compile time replay their precomputed value or error, and a
// lowered guard is evaluated against its packed span table.
func EvalCond(env Env, c *cCond) (expr.Cond, error) {
	if c.HasStatic {
		if c.StaticErr != "" {
			return nil, errors.New(c.StaticErr)
		}
		return c.Static, nil
	}
	return evalCondDynamic(env, c)
}

// evalCondDynamic evaluates a condition node ignoring its own static
// shortcut (children still use theirs); the compiler calls it to compute
// that shortcut in the first place.
func evalCondDynamic(env Env, c *cCond) (expr.Cond, error) {
	switch c.Kind {
	case cBool:
		return expr.Bool(c.B), nil
	case cCmp:
		l, err := EvalExpr(env, c.L, 0)
		if err != nil {
			return nil, err
		}
		r, err := EvalExpr(env, c.R, l.Width)
		if err != nil {
			return nil, err
		}
		l, r, err = coerceWidths(l, r)
		if err != nil {
			return nil, err
		}
		return expr.NewCmp(c.Op, l, r), nil
	case cPrefix:
		l, err := EvalExpr(env, c.L, c.PW)
		if err != nil {
			return nil, err
		}
		if l.Width != c.PW {
			return nil, evalErrf("%d-bit prefix read a %d-bit value", c.PW, l.Width)
		}
		return expr.NewPrefix(l, c.Val, c.PLen), nil
	case cMetaPresent:
		return expr.Bool(env.MetaExists(c.Key)), nil
	case cTagPresent:
		_, ok := env.Tag(c.Tag)
		return expr.Bool(ok), nil
	case cAnd:
		out := make([]expr.Cond, 0, len(c.Cs))
		for _, sub := range c.Cs {
			lc, err := EvalCond(env, sub)
			if err != nil {
				return nil, err
			}
			out = append(out, lc)
		}
		return expr.NewAnd(out...), nil
	case cOr:
		out := make([]expr.Cond, 0, len(c.Cs))
		for _, sub := range c.Cs {
			lc, err := EvalCond(env, sub)
			if err != nil {
				return nil, err
			}
			out = append(out, lc)
		}
		return expr.NewOr(out...), nil
	case cNot:
		lc, err := EvalCond(env, c.C)
		if err != nil {
			return nil, err
		}
		return expr.NewNot(lc), nil
	case cIntervalTable:
		return evalTable(env, c.IT)
	}
	return nil, evalErrf("unknown compiled condition kind %d", c.Kind)
}

// evalTable evaluates a lowered guard through its packed span table: one
// field read, then either a binary-search membership test (concrete field,
// yielding the same Bool the folded Or-tree would) or an expr.InSet the
// solver consumes with a single domain intersection (symbolic field). The
// read order matches the reference evaluation's first disjunct, so read
// errors surface identically. A read at another width than the field's is
// an error: the engine's header reads return the field's declared size.
func evalTable(env Env, it *ITable) (expr.Cond, error) {
	v, err := readLV(env, it.F)
	if err != nil {
		return nil, err
	}
	if v.Width != it.F.Size {
		return nil, evalErrf("table guard over a %d-bit field read a %d-bit value", it.F.Size, v.Width)
	}
	return expr.NewInSet(v, it.Table), nil
}

// coerceWidths reconciles operand widths exactly as the AST interpreter
// does: a concrete operand adopts the symbolic operand's width (value
// permitting); two symbolic operands must already agree.
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
