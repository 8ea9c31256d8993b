// Package expr defines the value and condition algebra shared by the SEFL
// interpreter and the constraint solver.
//
// SymNet (SIGCOMM'16) deliberately restricts symbolic expressions to
// referencing, addition, subtraction and negation so that path state stays
// cheap to represent. We capture that fragment with Lin, a linear term of the
// form (symbol + constant) mod 2^width, where the symbol part is optional.
// All arithmetic is modular in the term's width, which is what lets the
// DecIPTTL wrap-around bug from the paper's evaluation reproduce naturally.
package expr

import (
	"fmt"
	"strings"
)

// SymID identifies a symbolic value. IDs are unique within one Alloc
// (i.e. within one symbolic-execution run), never across runs, keeping runs
// deterministic and replayable.
type SymID int64

// NoSym marks the absence of a symbolic part in a Lin term.
const NoSym SymID = -1

// Alloc hands out fresh symbolic values, numbered from 0 in the order they
// are minted. The zero value is ready to use.
type Alloc struct {
	next SymID
}

// Fresh returns a new symbol of the given bit width.
func (a *Alloc) Fresh(width int) Lin {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("expr: invalid symbol width %d", width))
	}
	id := a.next
	a.next++
	return Lin{Sym: id, Width: width}
}

// Count reports how many symbols have been allocated.
func (a *Alloc) Count() int { return int(a.next) }

// Mask returns the all-ones mask for a bit width in [1,64].
func Mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// Lin is a linear term: (Sym + Add) mod 2^Width, or a plain constant when
// Sym == NoSym. Lin is a value type and is freely copied; it is the only
// representation of data stored in packet memory.
type Lin struct {
	Sym   SymID
	Add   uint64
	Width int
}

// Const builds a concrete term, truncated to width.
func Const(v uint64, width int) Lin {
	return Lin{Sym: NoSym, Add: v & Mask(width), Width: width}
}

// IsConst reports whether the term has no symbolic part.
func (l Lin) IsConst() bool { return l.Sym == NoSym }

// ConstVal returns the concrete value and true when the term is constant.
func (l Lin) ConstVal() (uint64, bool) {
	if l.Sym == NoSym {
		return l.Add, true
	}
	return 0, false
}

// AddConst returns l + k (mod 2^width).
func (l Lin) AddConst(k uint64) Lin {
	l.Add = (l.Add + k) & Mask(l.Width)
	return l
}

// SubConst returns l - k (mod 2^width).
func (l Lin) SubConst(k uint64) Lin {
	l.Add = (l.Add - k) & Mask(l.Width)
	return l
}

// Equal reports syntactic equality of two terms.
func (l Lin) Equal(o Lin) bool { return l == o }

func (l Lin) String() string {
	if l.Sym == NoSym {
		return fmt.Sprintf("%d", l.Add)
	}
	if l.Add == 0 {
		return fmt.Sprintf("s%d", l.Sym)
	}
	return fmt.Sprintf("s%d+%d", l.Sym, l.Add)
}

// CmpOp enumerates the comparison operators of the SEFL condition fragment.
type CmpOp uint8

// Comparison operators. Ordering comparisons are unsigned, matching header
// field semantics.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "=="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Negate returns the complementary operator (e.g. Eq -> Ne, Lt -> Ge).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	}
	return op
}

// Flip returns the operator with operands swapped (e.g. Lt -> Gt).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	}
	return op
}

// EvalCmp evaluates op on two concrete values.
func EvalCmp(op CmpOp, a, b uint64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}

// Cond is a boolean condition over Lin terms. The concrete variants are Cmp,
// Match, And, Or, Not and Bool. Conditions are immutable once built.
type Cond interface {
	isCond()
	String() string
}

// Cmp is the atomic comparison L op R.
type Cmp struct {
	Op   CmpOp
	L, R Lin
}

// Match is the atomic prefix constraint (L & Mask) == Val: Mask selects the
// top bits of L's width (PrefixMask), so L lies in one range. NewPrefix is
// its one constructor; the solver refuses any other mask.
type Match struct {
	L    Lin
	Mask uint64
	Val  uint64
}

// And is the conjunction of conditions. An empty And is true.
type And struct{ Cs []Cond }

// Or is the disjunction of conditions. An empty Or is false.
type Or struct{ Cs []Cond }

// Not negates a condition.
type Not struct{ C Cond }

// Bool is the constant condition.
type Bool bool

func (Cmp) isCond()   {}
func (Match) isCond() {}
func (And) isCond()   {}
func (Or) isCond()    {}
func (Not) isCond()   {}
func (Bool) isCond()  {}

func (c Cmp) String() string   { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }
func (m Match) String() string { return fmt.Sprintf("(%s & %#x) == %#x", m.L, m.Mask, m.Val) }
func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}
func (n Not) String() string { return "!(" + n.C.String() + ")" }
func (a And) String() string { return joinCond(a.Cs, " & ") }
func (o Or) String() string  { return joinCond(o.Cs, " | ") }

func joinCond(cs []Cond, sep string) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// NewCmp builds a comparison, constant-folding when both sides are concrete.
func NewCmp(op CmpOp, l, r Lin) Cond {
	if lv, ok := l.ConstVal(); ok {
		if rv, ok2 := r.ConstVal(); ok2 {
			return Bool(EvalCmp(op, lv, rv))
		}
	}
	return Cmp{Op: op, L: l, R: r}
}

// NewAnd flattens nested Ands and folds constants.
func NewAnd(cs ...Cond) Cond {
	out := make([]Cond, 0, len(cs))
	for _, c := range cs {
		switch v := c.(type) {
		case Bool:
			if !v {
				return Bool(false)
			}
		case And:
			out = append(out, v.Cs...)
		default:
			out = append(out, c)
		}
	}
	switch len(out) {
	case 0:
		return Bool(true)
	case 1:
		return out[0]
	}
	return And{Cs: out}
}

// NewOr flattens nested Ors and folds constants.
func NewOr(cs ...Cond) Cond {
	out := make([]Cond, 0, len(cs))
	for _, c := range cs {
		switch v := c.(type) {
		case Bool:
			if v {
				return Bool(true)
			}
		case Or:
			out = append(out, v.Cs...)
		default:
			out = append(out, c)
		}
	}
	switch len(out) {
	case 0:
		return Bool(false)
	case 1:
		return out[0]
	}
	return Or{Cs: out}
}

// NewNot pushes negation one level when cheap (atoms, constants), otherwise
// wraps. Full NNF conversion happens in the solver.
func NewNot(c Cond) Cond {
	switch v := c.(type) {
	case Bool:
		return !v
	case Cmp:
		return Cmp{Op: v.Op.Negate(), L: v.L, R: v.R}
	case Not:
		return v.C
	}
	return Not{C: c}
}

// PrefixMask returns the mask selecting the top plen bits of a width-bit
// field, e.g. PrefixMask(24, 32) == 0xffffff00.
func PrefixMask(plen, width int) uint64 {
	if plen <= 0 {
		return 0
	}
	if plen >= width {
		return Mask(width)
	}
	return Mask(width) &^ Mask(width-plen)
}

// NewPrefix constrains l to lie inside value/plen (an IP-style prefix),
// constant-folding concretes; a full-length prefix is an equality.
func NewPrefix(l Lin, value uint64, plen int) Cond {
	mask := PrefixMask(plen, l.Width)
	value &= mask
	if lv, ok := l.ConstVal(); ok {
		return Bool(lv&mask == value)
	}
	if mask == Mask(l.Width) {
		return NewCmp(Eq, l, Const(value, l.Width))
	}
	return Match{L: l, Mask: mask, Val: value}
}
