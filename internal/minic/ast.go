// Package minic implements a miniature C-like language and a deliberately
// *naive* symbolic executor over it — the stand-in for running Klee on
// middlebox C code (paper §2, Tables 1 and 4).
//
// The executor forks an execution state at every branch whose condition is
// symbolic, including loop tests and reads through symbolic array indexes
// (the behaviour that makes straight symbolic execution of the TCP-options
// parsing loop exponential in the options length). No SEFL-style tricks are
// applied: that is the point of the baseline.
package minic

import "fmt"

// expression is a mini-C expression over 64-bit unsigned scalars and byte arrays.
type expression interface {
	isExpr()
	String() string
}

// lit is an integer literal.
type lit struct{ V uint64 }

// varRef reads a scalar variable.
type varRef struct{ Name string }

// index reads array[Idx]; a symbolic index forks per feasible value.
type index struct {
	Array string
	Idx   expression
}

// bin is a binary arithmetic/comparison operation. Comparisons yield 0/1.
type bin struct {
	Op   binOp
	L, R expression
}

// binOp enumerates mini-C binary operators.
type binOp uint8

// Binary operators.
const (
	opAdd binOp = iota
	opSub
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAnd // logical &&, short-circuit at statement level is not modeled
	opOr  // logical ||
)

func (lit) isExpr()    {}
func (varRef) isExpr() {}
func (index) isExpr()  {}
func (bin) isExpr()    {}

func (c lit) String() string    { return fmt.Sprintf("%d", c.V) }
func (v varRef) String() string { return v.Name }
func (i index) String() string  { return fmt.Sprintf("%s[%s]", i.Array, i.Idx) }
func (b bin) String() string {
	ops := map[binOp]string{
		opAdd: "+", opSub: "-", opEq: "==", opNe: "!=", opLt: "<",
		opLe: "<=", opGt: ">", opGe: ">=", opAnd: "&&", opOr: "||",
	}
	return fmt.Sprintf("(%s %s %s)", b.L, ops[b.Op], b.R)
}

// Convenience constructors.

// num builds an integer literal.
func num(v uint64) expression { return lit{V: v} }

// ref builds a variable reference.
func ref(name string) expression { return varRef{Name: name} }

// at builds an array read.
func at(arr string, idx expression) expression { return index{Array: arr, Idx: idx} }

// add builds l + r.
func add(l, r expression) expression { return bin{Op: opAdd, L: l, R: r} }

// sub builds l - r.
func sub(l, r expression) expression { return bin{Op: opSub, L: l, R: r} }

// eq builds l == r.
func eq(l, r expression) expression { return bin{Op: opEq, L: l, R: r} }

// lt builds l < r.
func lt(l, r expression) expression { return bin{Op: opLt, L: l, R: r} }

// gt builds l > r.
func gt(l, r expression) expression { return bin{Op: opGt, L: l, R: r} }

// or builds l || r.
func or(l, r expression) expression { return bin{Op: opOr, L: l, R: r} }

// stmt is a mini-C statement.
type stmt interface {
	isStmt()
}

// assign sets a scalar variable.
type assign struct {
	Name string
	E    expression
}

// store writes array[Idx] = E.
type store struct {
	Array string
	Idx   expression
	E     expression
}

// ifStmt branches on a (possibly symbolic) condition.
type ifStmt struct {
	Cond       expression
	Then, Else []stmt
}

// while loops on a (possibly symbolic) condition.
type while struct {
	Cond expression
	Body []stmt
}

// switchStmt dispatches on E. Cases are (value, body) pairs; Default runs when
// no case matches.
type switchStmt struct {
	E       expression
	Cases   []switchCase
	Default []stmt
}

// switchCase is one case arm. Fallthrough is not modeled; each arm is
// independent (the Fig. 1 code only uses break/return/continue arms).
type switchCase struct {
	Val  uint64
	Body []stmt
}

// returnStmt ends the program with a result value.
type returnStmt struct{ E expression }

// breakStmt exits the innermost loop.
type breakStmt struct{}

// continueStmt restarts the innermost loop.
type continueStmt struct{}

func (assign) isStmt()       {}
func (store) isStmt()        {}
func (ifStmt) isStmt()       {}
func (while) isStmt()        {}
func (switchStmt) isStmt()   {}
func (returnStmt) isStmt()   {}
func (breakStmt) isStmt()    {}
func (continueStmt) isStmt() {}

// program is a mini-C program: statements plus array declarations.
type program struct {
	// Arrays maps array names to lengths; contents start symbolic or are
	// set concrete via Init.
	Arrays map[string]int
	// Init holds concrete initial array contents (optional per array).
	Init map[string][]uint64
	// Vars holds concrete initial scalar values.
	Vars map[string]uint64
	// SymbolicArrays lists arrays whose cells start as fresh symbols.
	SymbolicArrays []string
	Body           []stmt
}
