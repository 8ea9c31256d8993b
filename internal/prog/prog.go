// Package prog compiles SEFL port programs into a flat basic-block IR the
// engine interprets with a small dispatch loop, replacing per-step AST
// walking (the classic compile-once/execute-many structure of scalable
// symbolic-execution engines).
//
// A Program is an array of ops grouped into segments (basic blocks): If
// becomes an op carrying branch-target segments instead of nested
// instruction trees, Fork is an explicit multi-successor terminator listing
// output ports, and nested instruction blocks splice into their parent
// segment. Compilation runs a static optimization pass:
//
//   - l-values are pre-resolved: metadata names bind to their MetaKey
//     (element instance baked in at compile time) and tag-independent header
//     offsets fold to absolute bit offsets;
//   - expressions and conditions that do not touch the packet are
//     constant-folded at compile time into the exact values runtime
//     evaluation would produce (including the exact error, when the static
//     evaluation would fail);
//   - ops after an op that terminates every path (Fail, Forward, Fork, an
//     If whose branches all terminate) are dead code and dropped;
//   - For-loop patterns are compiled to regexps once (trace lines and
//     failure messages stay lazy, rendered only when the AST interpreter
//     would render them).
//
// The compiled program must be observationally identical to the AST
// interpreter it replaces — same results, same statistics, same trace lines,
// same fresh-symbol allocation order — which is what the differential
// property tests in this package pin down. Fresh-symbol order is the one
// place the order across sibling states shows, so both executors (the AST
// interpreter and the IR loop) run siblings state-major: each successor of
// an If or For runs the rest of the program before the next sibling starts.
//
// SEFL models branch only where the network does, so a compiled program is
// already its element's transfer function: every segment records where a
// state resumes when it runs off the segment's end (link), and walking the
// IR is walking the element's summary. Programs are immutable after
// compilation and shared read-only across scheduler workers and batch jobs;
// the only mutable members are the per-For-op body-program cache and the
// once-rendered trace lines and failure messages, both concurrency-safe
// memos.
package prog

import (
	"fmt"
	"regexp"
	"sync"
	"sync/atomic"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/sefl"
)

// OpKind enumerates the IR operations. One op corresponds to one SEFL
// instruction (blocks splice away).
type OpKind uint8

const (
	// OpNoOp does nothing (kept: it is traced like any instruction).
	OpNoOp OpKind = iota
	// OpAllocate creates a header field or metadata entry.
	OpAllocate
	// OpDeallocate destroys the topmost allocation of an l-value.
	OpDeallocate
	// OpAssign evaluates E and stores it into LV.
	OpAssign
	// OpCreateTag defines a tag at the concrete value of E.
	OpCreateTag
	// OpDestroyTag removes the topmost definition of a tag.
	OpDestroyTag
	// OpConstrain filters the current path by C without branching.
	OpConstrain
	// OpFail stops the path with a message. Terminator.
	OpFail
	// OpIf forks the state: the clone takes C into segment Then, the
	// original takes ¬C into segment Else; infeasible successors are pruned.
	OpIf
	// OpFor snapshots metadata keys matching a pattern and runs the
	// lazily-compiled body program once per key.
	OpFor
	// OpForward sends the packet to one output port. Terminator.
	OpForward
	// OpFork duplicates the packet to every listed output port: the explicit
	// multi-successor terminator of the IR.
	OpFork
	// OpUnknown preserves the AST interpreter's behavior for instruction
	// types the compiler does not know: the path fails with Msg. It is the
	// last kind.
	OpUnknown
)

// LV is a pre-resolved l-value: metadata names are bound to their full
// MetaKey at compile time (the owning element instance is a compile input),
// and header offsets with no tag are already absolute. Only tagged offsets
// need runtime resolution (Tag != "").
type LV struct {
	IsHdr bool
	Tag   string // "" = Rel is the absolute bit offset
	Rel   int64
	Size  int // declared header size in bits (0 for metadata)
	Key   memory.MetaKey
	// Err preserves the AST interpreter's runtime error for l-value types
	// the compiler does not know; when set, any use fails with this message.
	Err string
}

// ExprKind enumerates compiled expression nodes, mirroring the SEFL
// expression fragment.
type ExprKind uint8

const (
	// eNum is an integer literal (width 0 adapts to the evaluation hint).
	eNum ExprKind = iota
	// eSym mints a fresh symbolic value at evaluation time.
	eSym
	// eRef reads a pre-resolved l-value.
	eRef
	// eTagVal reads the concrete value of a tag plus an offset.
	eTagVal
	// eArith is A+B or A-B under SEFL's linearity restriction.
	eArith
)

// CExpr is a compiled expression. Folded is non-nil when the node's value is
// independent of the evaluation hint and was computed at compile time; such
// nodes evaluate with a single load.
type CExpr struct {
	Kind   ExprKind
	Folded *expr.Lin
	V      uint64 // eNum value
	W      int    // eNum/eSym declared width (0 = adaptive)
	Name   string // eSym diagnostic name
	LV     LV     // eRef target
	Tag    string // eTagVal tag
	Rel    int64  // eTagVal offset
	A, B   *CExpr // eArith operands
	Minus  bool   // eArith: subtraction
	// Err preserves the AST interpreter's runtime error for expression
	// types the compiler does not know.
	Err string
}

// condKind enumerates compiled condition nodes.
type condKind uint8

const (
	// cBool is a constant condition.
	cBool condKind = iota
	// cCmp compares two expressions.
	cCmp
	// cPrefix tests membership of a Value/Len prefix.
	cPrefix
	// cMetaPresent tests existence of a (pre-resolved) metadata entry.
	cMetaPresent
	// cTagPresent tests existence of a tag.
	cTagPresent
	// cAnd, cOr, cNot combine conditions.
	cAnd
	cOr
	cNot
	// cIntervalTable is a lowered table guard (sefl.Table): equality/prefix
	// rows over one header field compiled into sorted, merged value ranges.
	// The node carries the field and the span table in IT and no children.
	cIntervalTable
)

// cCond is a compiled condition. Conditions whose evaluation cannot touch
// the packet are evaluated once at compile time: HasStatic marks them, and
// Static/StaticErr replay the exact value (or the exact evaluation error)
// the AST interpreter would produce. Each node belongs to the one op whose
// condition it compiles: a guard the program repeats compiles once per
// occurrence.
type cCond struct {
	Kind      condKind
	HasStatic bool
	Static    expr.Cond
	StaticErr string

	B        bool       // cBool value
	Op       expr.CmpOp // cCmp operator
	L, R     *CExpr     // cCmp operands / cPrefix subject (L)
	Val      uint64     // cPrefix value
	PLen, PW int        // cPrefix length and width
	Key      memory.MetaKey
	Tag      string   // cTagPresent tag
	Cs       []*cCond // cAnd/cOr children
	C        *cCond   // cNot child
	IT       *ITable  // cIntervalTable payload
}

// ITable is the payload of a cIntervalTable node: the guarded field and the
// merged span table evaluation consumes. Tables are immutable after
// construction and shared by every path visiting the guard.
type ITable struct {
	F LV // field l-value (a header field; F.Size is the table's width)
	// Table is the guard's span table (sefl.Table.SpanTable): the one a
	// router's table carries, or its rows merged.
	Table *expr.SpanTable
}

// ForOp is the payload of an OpFor: the pattern compiled once, the body
// constructor, and a concurrency-safe memo of compiled body programs keyed
// by metadata key. Body must be a pure function of its key (every SEFL For
// in the tree is), since the compiled body is reused across executions.
type ForOp struct {
	Pattern string
	Re      *regexp.Regexp // nil when the pattern failed to compile
	Err     string         // precomputed bad-pattern failure message
	Body    func(key sefl.Meta) sefl.Instr
	cache   sync.Map // memory.MetaKey -> *Program
}

// SegID names a segment of a Program.
type SegID int32

// Seg is one basic block: the ops at indices [Lo, Hi) of Program.Ops.
type Seg struct {
	Lo, Hi int32
	// Terminates reports that every state entering the segment has
	// terminated (failed or set output ports) by its end — the property the
	// dead-code elimination pass computes and relies on.
	Terminates bool
	// cont is where a state that runs off the segment's end resumes; link
	// derives it from the If ops.
	cont resume
}

// resume is a position in a program: op idx of segment seg, or the
// program's end when seg < 0. The zero value, which no If yields (a state
// resumes after its If), marks a segment link has not reached yet.
type resume struct {
	seg SegID
	idx int32
}

// Op is one IR operation. The fields used depend on Kind. Ins is the
// original SEFL instruction: trace lines and constraint-failure messages
// render it on demand, exactly when (and only when) the AST interpreter
// would — precomputing them would pin huge strings for models whose guards
// span hundreds of thousands of table entries.
type Op struct {
	Kind  OpKind
	Ins   sefl.Instr
	LV    LV     // OpAllocate, OpDeallocate, OpAssign
	Size  int    // OpAllocate, OpDeallocate (pre-defaulted from the Hdr size)
	E     *CExpr // OpAssign, OpCreateTag
	C     *cCond // OpConstrain, OpIf
	Msg   string // OpFail / OpCreateTag failure / OpUnknown message
	Tag   string // OpCreateTag, OpDestroyTag
	Port  int    // OpForward
	Ports []int  // OpFork; OpForward: {Port}, the successor slice every visit shares
	Then  SegID  // OpIf
	Else  SegID  // OpIf
	For   *ForOp // OpFor
}

// Program is one compiled element-port program: a flat op array cut into
// segments, entered at Entry. Nothing writes a program after Compile but
// its lazy caches (renders, the For-body memo), so programs are safe for
// concurrent execution; a changed port source is a new program.
type Program struct {
	Elem     string // element name (baked into trace lines)
	Instance int    // element instance (baked into metadata keys)
	Label    string // display label, e.g. "sw.in[3]"
	Ops      []Op
	Segs     []Seg
	Entry    SegID

	// readsElem marks a program whose ops depend on Elem or Instance beyond
	// its trace lines: it resolves a Local metadata key or holds a For.
	readsElem bool

	// renders caches a trace line and a Constrain failure message per op
	// (see render).
	renders atomic.Pointer[[]atomic.Pointer[string]]
}

// Rebind returns p for the element elem of the given instance under label:
// a new header sharing p's ops and segments, with the element's name and
// instance and render slots of its own, so its trace lines name elem. ok is
// false when p reads its element beyond its trace lines (readsElem): such
// code compiles for each element.
func (p *Program) Rebind(elem string, instance int, label string) (rp *Program, ok bool) {
	if p.readsElem {
		return nil, false
	}
	return &Program{Elem: elem, Instance: instance, Label: label, Ops: p.Ops, Segs: p.Segs, Entry: p.Entry}, true
}

// ReadsElem reports whether p's ops depend on its element beyond its trace
// lines: it resolves a Local metadata key or holds a For. Code that does
// not builds the same packet at every element.
func (p *Program) ReadsElem() bool { return p.readsElem }

// Seg returns the segment with the given id.
func (p *Program) Seg(id SegID) Seg { return p.Segs[id] }

// Cont returns where a state that runs off the end of segment id resumes:
// op idx of segment seg, or ok false when it leaves the program.
func (p *Program) Cont(id SegID) (seg SegID, idx int32, ok bool) {
	c := p.Segs[id].cont
	return c.seg, c.idx, c.seg >= 0
}

// link derives every segment's continuation from the If ops: an arm resumes
// after its If, or where the If's own segment resumes when the If ends it.
// Arms lie below the segment holding their If (compileSeg emits them first),
// so walking the segments from the highest ID down settles a segment's
// continuation before its arms need it; a segment no If has entered by then
// is the entry. The compiler enters each arm from one If and the entry from
// none, so every segment has one continuation and a state runs each op of a
// program at most once. link allocates nothing: a query compiles the
// injection code new to its network and For bodies.
func link(p *Program) {
	for id := SegID(len(p.Segs)) - 1; id >= 0; id-- {
		s := &p.Segs[id]
		if s.cont == (resume{}) {
			s.cont = resume{seg: -1} // the entry
		}
		for i := s.Lo; i < s.Hi; i++ {
			op := &p.Ops[i]
			if op.Kind != OpIf {
				continue
			}
			at := resume{seg: id, idx: i + 1}
			if i+1 == s.Hi {
				at = s.cont
			}
			p.Segs[op.Then].cont, p.Segs[op.Else].cont = at, at
		}
	}
}

// render returns the string cached in the given slot, calling mk to fill it
// on first use. The slots (a trace line and a failure message per op) are
// allocated on the first render, so a program that never traces and never
// fails a constraint holds none. Renders are pure functions of the
// instruction, so racing stores are benign: every winner writes the same
// bytes.
func (p *Program) render(slot int, mk func() string) string {
	if p.renders.Load() == nil {
		fresh := make([]atomic.Pointer[string], 2*len(p.Ops))
		p.renders.CompareAndSwap(nil, &fresh)
	}
	cell := &(*p.renders.Load())[slot]
	if s := cell.Load(); s != nil {
		return *s
	}
	str := mk()
	cell.Store(&str)
	return str
}

// TraceLine returns the trace line of the op at index i, rendered once and
// shared by every visit.
func (p *Program) TraceLine(i int32) string {
	return p.render(2*int(i), func() string {
		return fmt.Sprintf("%s: %s", p.Elem, p.Ops[i].Ins)
	})
}

// ConstrainFailMsg returns the failure message of the OpConstrain at index
// i (UnsatMsg), rendered once and shared by every visit. A lowered table
// guard renders the span table its node asserts, so a port whose rows
// changed but whose span table did not fails with the same message.
func (p *Program) ConstrainFailMsg(i int32) string {
	return p.render(2*int(i)+1, func() string {
		c := p.Ops[i].Ins.(sefl.Constrain).C
		if t, ok := c.(sefl.Table); ok && p.Ops[i].C.Kind == cIntervalTable {
			t.Spans = p.Ops[i].C.IT.Table
			c = t
		}
		return UnsatMsg(c)
	})
}

// ForBody returns the compiled body program of a For op for one metadata
// key, compiling and memoizing on first use. The body program shares the
// element identity of its parent, so local metadata and trace lines resolve
// identically to the AST interpreter instantiating the body in-line.
func (p *Program) ForBody(f *ForOp, key memory.MetaKey) *Program {
	if bp, ok := f.cache.Load(key); ok {
		return bp.(*Program)
	}
	body := f.Body(sefl.Meta{Name: key.Name, Instance: key.Instance, Pinned: true})
	bp := Compile(body, p.Elem, p.Instance, p.Label+"/for")
	actual, _ := f.cache.LoadOrStore(key, bp)
	return actual.(*Program)
}
