// Package sefl defines the Symbolic Execution Friendly Language of the
// SymNet paper (Fig. 2): a small imperative modeling language in which a
// packet is an execution path. The package holds the abstract syntax only;
// interpretation lives in internal/core.
//
// Design properties inherited from the paper:
//   - filtering without branching (Constrain),
//   - explicit path control (If forks exactly two paths, Fork duplicates),
//   - bounded loops (For iterates a snapshot of metadata keys),
//   - headers at explicit offsets addressed through tags,
//   - no recursion and no unbounded iteration, so every SEFL program
//     terminates and uses bounded memory by construction.
package sefl

import (
	"fmt"
	"strings"

	"symnet/internal/expr"
)

// --- Offsets and l-values ---

// Off is a packet-memory offset: an optional tag plus a relative bit
// distance, e.g. {Tag: "L3", Rel: 96} is the paper's Tag("L3")+96. A
// missing tag means an absolute offset.
type Off struct {
	Tag string
	Rel int64
}

// FromTag returns an offset relative to a tag.
func FromTag(tag string, rel int64) Off { return Off{Tag: tag, Rel: rel} }

func (o Off) String() string {
	if o.Tag == "" {
		return fmt.Sprintf("%d", o.Rel)
	}
	if o.Rel == 0 {
		return fmt.Sprintf("Tag(%s)", o.Tag)
	}
	return fmt.Sprintf("Tag(%s)%+d", o.Tag, o.Rel)
}

// LValue designates a storage location: a header field or a metadata entry.
type LValue interface {
	isLValue()
	String() string
}

// Hdr addresses a header field of Size bits at offset Off.
type Hdr struct {
	Off  Off
	Size int
	Name string // optional display name (e.g. "IpSrc")
}

// Meta addresses a metadata entry. Local entries are private to the element
// instance executing the code (the paper's "local" visibility, which is what
// lets cascaded NATs keep separate state).
type Meta struct {
	Name  string
	Local bool
	// Instance pins the entry to a specific element instance. It is set by
	// the engine when For-loop bodies are instantiated over concrete keys;
	// user models leave it at 0 and use Local instead.
	Instance int
	Pinned   bool
}

func (Hdr) isLValue()  {}
func (Meta) isLValue() {}

func (h Hdr) String() string {
	if h.Name != "" {
		return h.Name
	}
	return fmt.Sprintf("hdr[%s:%d]", h.Off, h.Size)
}

func (m Meta) String() string {
	if m.Local {
		return fmt.Sprintf("%q(local)", m.Name)
	}
	return fmt.Sprintf("%q", m.Name)
}

// --- Expressions ---

// Expr is a SEFL expression. The language deliberately supports only
// referencing, constants, fresh symbolic values, and +/- with at least one
// concrete operand ("simple expressions ... greatly reduces state
// representation complexity", §5).
type Expr interface {
	isExpr()
	String() string
}

// Num is an integer literal. Width 0 adapts to the context (the width of
// the assigned field or the opposing comparison operand).
type Num struct {
	V uint64
	W int
}

// Symbolic produces a fresh unconstrained symbolic value of width W when
// evaluated — the paper's SymbolicValue().
type Symbolic struct {
	W    int
	Name string
}

// Ref reads an l-value.
type Ref struct{ LV LValue }

// Add evaluates A + B; at most one operand may be symbolic.
type Add struct{ A, B Expr }

// Sub evaluates A - B; B must be concrete when A is symbolic.
type Sub struct{ A, B Expr }

// TagVal evaluates to the current (concrete) value of a tag plus Rel.
type TagVal struct {
	Tag string
	Rel int64
}

func (Num) isExpr()      {}
func (Symbolic) isExpr() {}
func (Ref) isExpr()      {}
func (Add) isExpr()      {}
func (Sub) isExpr()      {}
func (TagVal) isExpr()   {}

func (n Num) String() string      { return fmt.Sprintf("%d", n.V) }
func (s Symbolic) String() string { return "Symbolic(" + s.Name + ")" }
func (r Ref) String() string      { return r.LV.String() }
func (a Add) String() string      { return "(" + a.A.String() + " + " + a.B.String() + ")" }
func (s Sub) String() string      { return "(" + s.A.String() + " - " + s.B.String() + ")" }
func (t TagVal) String() string   { return Off{Tag: t.Tag, Rel: t.Rel}.String() }

// C is shorthand for an adaptable-width literal.
func C(v uint64) Num { return Num{V: v} }

// CW is shorthand for a fixed-width literal.
func CW(v uint64, w int) Num { return Num{V: v, W: w} }

// --- Conditions ---

// Cond is a SEFL boolean condition over expressions.
type Cond interface {
	isCond()
	String() string
}

// Cmp compares two expressions.
type Cmp struct {
	Op   expr.CmpOp
	L, R Expr
}

// Prefix tests whether E lies in the Value/Len prefix of a Width-bit space
// (Width defaults to 32 at evaluation when zero).
type Prefix struct {
	E     Expr
	Value uint64
	Len   int
	Width int
}

// MetaPresent tests whether a metadata entry currently exists.
type MetaPresent struct{ M Meta }

// TagPresent tests whether a tag currently exists: whether the packet
// carries the header the tag marks (no TagL2 after a Strip, say).
type TagPresent struct{ Tag string }

// And, Or, Not combine conditions; True and False are constants.
type (
	CAnd  struct{ Cs []Cond }
	COr   struct{ Cs []Cond }
	CNot  struct{ C Cond }
	CBool bool
)

func (Cmp) isCond()         {}
func (Prefix) isCond()      {}
func (MetaPresent) isCond() {}
func (TagPresent) isCond()  {}
func (CAnd) isCond()        {}
func (COr) isCond()         {}
func (CNot) isCond()        {}
func (CBool) isCond()       {}

func (c Cmp) String() string { return c.L.String() + " " + c.Op.String() + " " + c.R.String() }
func (p Prefix) String() string {
	return fmt.Sprintf("%s in %d/%d", p.E, p.Value, p.Len)
}
func (m MetaPresent) String() string { return "present(" + m.M.String() + ")" }
func (t TagPresent) String() string  { return "present(" + t.Tag + ")" }
func (b CBool) String() string {
	if b {
		return "true"
	}
	return "false"
}
func (n CNot) String() string { return "!(" + n.C.String() + ")" }
func (a CAnd) String() string { return joinConds(a.Cs, " & ") }
func (o COr) String() string  { return joinConds(o.Cs, " | ") }

func joinConds(cs []Cond, sep string) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Convenience constructors mirroring the paper's notation.

// Eq builds L == R.
func Eq(l, r Expr) Cond { return Cmp{Op: expr.Eq, L: l, R: r} }

// Ne builds L != R.
func Ne(l, r Expr) Cond { return Cmp{Op: expr.Ne, L: l, R: r} }

// Lt builds L < R (unsigned).
func Lt(l, r Expr) Cond { return Cmp{Op: expr.Lt, L: l, R: r} }

// Le builds L <= R (unsigned).
func Le(l, r Expr) Cond { return Cmp{Op: expr.Le, L: l, R: r} }

// Gt builds L > R (unsigned).
func Gt(l, r Expr) Cond { return Cmp{Op: expr.Gt, L: l, R: r} }

// Ge builds L >= R (unsigned).
func Ge(l, r Expr) Cond { return Cmp{Op: expr.Ge, L: l, R: r} }

// AndC conjoins conditions.
func AndC(cs ...Cond) Cond { return CAnd{Cs: cs} }

// OrC disjoins conditions.
func OrC(cs ...Cond) Cond { return COr{Cs: cs} }

// NotC negates a condition.
func NotC(c Cond) Cond { return CNot{C: c} }

// --- Instructions (Fig. 2) ---

// Instr is a SEFL instruction.
type Instr interface {
	isInstr()
	String() string
}

// Allocate creates storage: a header field (with memory-safety checks) or a
// metadata entry.
type Allocate struct {
	LV   LValue
	Size int // bits
}

// Deallocate destroys the topmost allocation of an l-value. Size < 0 skips
// the size check.
type Deallocate struct {
	LV   LValue
	Size int
}

// Assign evaluates E and stores it into LV, clearing prior constraints on
// the location (a fresh term replaces the old one).
type Assign struct {
	LV LValue
	E  Expr
}

// CreateTag defines tag Name at the (concrete) value of E.
type CreateTag struct {
	Name string
	E    Expr
}

// DestroyTag removes the topmost definition of a tag.
type DestroyTag struct{ Name string }

// Constrain filters the current path: the path fails if C cannot hold.
// No branching is introduced — this is SEFL's core trick.
type Constrain struct{ C Cond }

// Fail stops the path with a message.
type Fail struct{ Msg string }

// If forks execution: one successor path executes Then under C, the other
// executes Else under ¬C. Infeasible successors are pruned.
type If struct {
	C    Cond
	Then Instr
	Else Instr
}

// For binds each metadata key matching Pattern (a regular expression over
// visible metadata names, snapshotted before the loop runs) and executes
// Body(key). The snapshot makes the loop bounded and branch-free.
//
// Body is an arbitrary Go closure, which a wire codec cannot capture. A For
// that must cross a process boundary (distributed verification ships SEFL
// ASTs and compiled programs to worker processes) carries Ref/Arg instead:
// Ref names a body constructor registered with RegisterForBody and Arg is
// its serialized argument, so the receiving process rebuilds an equivalent
// Body. Fors built by NewFor always serialize; hand-built Fors with a nil
// Ref are rejected by EncodeInstr with a pointed error.
type For struct {
	Pattern string
	Body    func(key Meta) Instr
	Ref     string
	Arg     string
}

// Forward sends the packet to output port Port, ending input processing.
type Forward struct{ Port int }

// Fork duplicates the packet to every listed output port.
type Fork struct{ Ports []int }

// Block groups instructions, executed in order (InstructionBlock).
type Block struct{ Is []Instr }

// NoOp does nothing.
type NoOp struct{}

func (Allocate) isInstr()   {}
func (Deallocate) isInstr() {}
func (Assign) isInstr()     {}
func (CreateTag) isInstr()  {}
func (DestroyTag) isInstr() {}
func (Constrain) isInstr()  {}
func (Fail) isInstr()       {}
func (If) isInstr()         {}
func (For) isInstr()        {}
func (Forward) isInstr()    {}
func (Fork) isInstr()       {}
func (Block) isInstr()      {}
func (NoOp) isInstr()       {}

func (a Allocate) String() string   { return fmt.Sprintf("Allocate(%s,%d)", a.LV, a.Size) }
func (d Deallocate) String() string { return fmt.Sprintf("Deallocate(%s,%d)", d.LV, d.Size) }
func (a Assign) String() string     { return fmt.Sprintf("Assign(%s,%s)", a.LV, a.E) }
func (c CreateTag) String() string  { return fmt.Sprintf("CreateTag(%q,%s)", c.Name, c.E) }
func (d DestroyTag) String() string { return fmt.Sprintf("DestroyTag(%q)", d.Name) }
func (c Constrain) String() string  { return fmt.Sprintf("Constrain(%s)", c.C) }
func (f Fail) String() string       { return fmt.Sprintf("Fail(%q)", f.Msg) }
func (i If) String() string         { return fmt.Sprintf("If(%s,%s,%s)", i.C, i.Then, i.Else) }
func (f For) String() string        { return fmt.Sprintf("For(%q)", f.Pattern) }
func (f Forward) String() string    { return fmt.Sprintf("Forward(%d)", f.Port) }
func (f Fork) String() string {
	parts := make([]string, len(f.Ports))
	for i, p := range f.Ports {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return "Fork(" + strings.Join(parts, ",") + ")"
}
func (b Block) String() string {
	parts := make([]string, len(b.Is))
	for i, in := range b.Is {
		parts[i] = in.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}
func (NoOp) String() string { return "NoOp" }

// Seq builds an instruction block.
func Seq(is ...Instr) Instr {
	if len(is) == 1 {
		return is[0]
	}
	return Block{Is: is}
}
