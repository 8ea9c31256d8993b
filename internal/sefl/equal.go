package sefl

import (
	"slices"

	"symnet/internal/expr"
)

// Equal reports whether a and b are the same program: the same instruction
// tree, node by node, with the same l-values, expressions, conditions,
// names and ports, so compiling either gives the same program. It allocates
// nothing. Expressions and l-values are comparable values and compare with
// ==; only the nodes holding slices (Block, Fork, CAnd, COr and a Table's
// rows) are walked; a missing node (nil, as in source decoded without a
// child) equals only a missing node. A For is equal only to a For naming the same registered
// body (Ref and Arg): a body closure cannot be compared, so a For without a
// Ref equals nothing, itself included. A Table's Spans are derived from its
// rows and not compared.
func Equal(a, b Instr) bool {
	switch x := a.(type) {
	case Block:
		y, ok := b.(Block)
		return ok && slices.EqualFunc(x.Is, y.Is, Equal)
	case If:
		y, ok := b.(If)
		return ok && condEqual(x.C, y.C) && Equal(x.Then, y.Then) && Equal(x.Else, y.Else)
	case Constrain:
		y, ok := b.(Constrain)
		return ok && condEqual(x.C, y.C)
	case For:
		y, ok := b.(For)
		return ok && x.Ref != "" && x.Ref == y.Ref && x.Arg == y.Arg && x.Pattern == y.Pattern
	case Fork:
		y, ok := b.(Fork)
		return ok && slices.Equal(x.Ports, y.Ports)
	case nil, NoOp, Allocate, Deallocate, Assign, CreateTag, DestroyTag, Fail, Forward:
		return a == b
	}
	return false
}

// condEqual is Equal for conditions.
func condEqual(a, b Cond) bool {
	switch x := a.(type) {
	case CAnd:
		y, ok := b.(CAnd)
		return ok && slices.EqualFunc(x.Cs, y.Cs, condEqual)
	case COr:
		y, ok := b.(COr)
		return ok && slices.EqualFunc(x.Cs, y.Cs, condEqual)
	case CNot:
		y, ok := b.(CNot)
		return ok && condEqual(x.C, y.C)
	case Table:
		y, ok := b.(Table)
		return ok && x.F == y.F && slices.EqualFunc(x.Rows, y.Rows, rowEqual)
	case nil, CBool, Cmp, Prefix, MetaPresent, TagPresent:
		return a == b
	}
	return false
}

func rowEqual(a, b expr.GuardRow) bool {
	return a.Kind == b.Kind && a.V == b.V && a.Len == b.Len && slices.Equal(a.Excl, b.Excl)
}

// Clone returns a copy of ins that shares no slice with it, so writing an
// element of one of ins's slices leaves the copy as it was; Equal(ins,
// Clone(ins)) holds wherever Equal(ins, ins) does. Subtrees holding no
// slice are values and are shared as they are, as is a Table's Spans,
// immutable once built.
func Clone(ins Instr) Instr {
	c, _ := clone(ins)
	return c
}

// clone is Clone, reporting whether ins holds a slice (and so was copied).
func clone(ins Instr) (Instr, bool) {
	switch v := ins.(type) {
	case Block:
		is := make([]Instr, len(v.Is))
		for i, sub := range v.Is {
			is[i], _ = clone(sub)
		}
		return Block{Is: is}, true
	case If:
		c, cc := cloneCond(v.C)
		t, ct := clone(v.Then)
		e, ce := clone(v.Else)
		if cc || ct || ce {
			return If{C: c, Then: t, Else: e}, true
		}
	case Constrain:
		if c, copied := cloneCond(v.C); copied {
			return Constrain{C: c}, true
		}
	case Fork:
		return Fork{Ports: slices.Clone(v.Ports)}, true
	}
	return ins, false
}

// cloneCond is clone for conditions.
func cloneCond(c Cond) (Cond, bool) {
	switch v := c.(type) {
	case CAnd:
		return CAnd{Cs: cloneConds(v.Cs)}, true
	case COr:
		return COr{Cs: cloneConds(v.Cs)}, true
	case CNot:
		if sub, copied := cloneCond(v.C); copied {
			return CNot{C: sub}, true
		}
	case Table:
		rows := slices.Clone(v.Rows)
		for i := range rows {
			rows[i].Excl = slices.Clone(rows[i].Excl)
		}
		v.Rows = rows
		return v, true
	}
	return c, false
}

func cloneConds(cs []Cond) []Cond {
	out := make([]Cond, len(cs))
	for i, c := range cs {
		out[i], _ = cloneCond(c)
	}
	return out
}
