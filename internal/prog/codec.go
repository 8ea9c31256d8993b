// Wire codec for compiled programs. The distributed runner ships each
// element-port program to worker processes so they execute the exact IR the
// coordinator compiled instead of recompiling from the AST. Most IR nodes
// (Op scalars, LV, CExpr, Seg) are concrete exported structs and
// travel as-is; the three non-concrete pieces are handled explicitly:
//
//   - Op.Ins (a sefl.Instr interface, needed for lazy trace lines and
//     failure messages) crosses as a sefl.WireInstr;
//   - condition nodes are hash-consed within a program (structurally equal
//     guards share one *cCond), so the codec flattens the unique nodes into an indexed table — children
//     before parents — and ops reference indices, restoring the exact
//     sharing on decode;
//   - For ops carry their pattern plus the serialized body reference of the
//     originating sefl.For (see sefl.RegisterForBody); the decoder rebuilds
//     the ForOp through the same constructor the compiler uses, so bad
//     patterns fail with byte-identical messages.
//
// Decode(Encode(p)) executes identically to p — same results, statistics,
// traces and symbol order — pinned by the codec tests here and the
// distributed property tests in internal/dist.
package prog

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/sefl"
)

// newForOp builds the runtime payload of an OpFor. The compiler and the
// decoder share it so pattern-compilation behavior (including the exact
// bad-pattern failure message) cannot drift between local and shipped
// programs.
func newForOp(pattern string, body func(sefl.Meta) sefl.Instr) *ForOp {
	f := &ForOp{Pattern: pattern, Body: body}
	re, err := regexp.Compile(pattern)
	if err != nil {
		f.Err = fmt.Sprintf("For: bad pattern %q: %v", pattern, err)
	} else {
		f.Re = re
	}
	return f
}

// WireProgram is the concrete form of one Program.
type WireProgram struct {
	Elem             string
	Instance         int
	Label            string
	Entry            SegID
	Segs             []Seg
	Ops              []WireOp
	Conds, CondsSeen int
	// CondTab holds the program's unique condition nodes, children before
	// parents; WireOp.C and WireCCond.Cs/C reference indices into it.
	CondTab []WireCCond
}

// WireOp is the concrete form of one Op. C is an index into the program's
// condition table (-1 when the op carries no condition).
type WireOp struct {
	Kind  OpKind
	Ins   *sefl.WireInstr
	LV    LV
	Size  int
	E     *CExpr
	C     int32
	Msg   string
	Tag   string
	Port  int
	Ports []int
	Then  SegID
	Else  SegID
	// For ops: the loop pattern plus the registered body reference.
	HasFor     bool
	ForPattern string
	ForRef     string
	ForArg     string
}

// WireCCond is the concrete form of one condition node. Child conditions
// (And/Or members, Not operand) are table indices. A cIntervalTable node
// ships no child indices: its disjuncts cross the wire as the packed row
// stream (ITRows) — the frame-size win this lowering exists for — and the
// decoder rebuilds the span tables through the same construction the
// compiler uses, so the decoded node is byte-identical; like the compiler's
// it has no children until somebody asks for the Or-tree view.
type WireCCond struct {
	Kind      CondKind
	FP        expr.Fp
	HasStatic bool
	Static    *expr.WireExprCond
	StaticErr string
	B         bool
	Op        expr.CmpOp
	L, R      *CExpr
	Val, Mask uint64
	PLen, PW  int
	Key       memory.MetaKey
	Cs        []int32
	C         int32
	// Interval-table payload (Kind == cIntervalTable).
	ITF    LV
	ITRows []uint64
}

// EncodeProgram converts a compiled program to its wire form. It fails only
// when an instruction cannot be serialized (a For body built from a bare
// closure rather than a registered constructor).
func EncodeProgram(p *Program) (*WireProgram, error) {
	w := &WireProgram{
		Elem:      p.Elem,
		Instance:  p.Instance,
		Label:     p.Label,
		Entry:     p.Entry,
		Segs:      p.Segs,
		Conds:     p.Conds,
		CondsSeen: p.CondsSeen,
		Ops:       make([]WireOp, len(p.Ops)),
	}
	idx := make(map[*cCond]int32)
	for i := range p.Ops {
		op := &p.Ops[i]
		wop := WireOp{
			Kind: op.Kind, LV: op.LV, Size: op.Size, E: op.E, C: -1,
			Msg: op.Msg, Tag: op.Tag, Port: op.Port, Ports: op.Ports,
			Then: op.Then, Else: op.Else,
		}
		if op.Kind == OpForward {
			wop.Ports = nil // the decoder rebuilds it from Port
		}
		if op.Ins != nil {
			ins, err := sefl.EncodeInstr(op.Ins)
			if err != nil {
				return nil, fmt.Errorf("prog: encode %s op %d: %w", p.Label, i, err)
			}
			wop.Ins = ins
		}
		if op.C != nil {
			ci, err := encodeCond(w, idx, op.C)
			if err != nil {
				return nil, fmt.Errorf("prog: encode %s op %d: %w", p.Label, i, err)
			}
			wop.C = ci
		}
		if op.For != nil {
			f, ok := op.Ins.(sefl.For)
			if !ok || f.Ref == "" {
				return nil, fmt.Errorf("prog: encode %s op %d: For(%q) body is a bare closure; build with sefl.NewFor", p.Label, i, op.For.Pattern)
			}
			wop.HasFor = true
			wop.ForPattern = op.For.Pattern
			wop.ForRef = f.Ref
			wop.ForArg = f.Arg
		}
		w.Ops[i] = wop
	}
	return w, nil
}

// encodeCond flattens one condition node (children first) into the table,
// deduplicating by pointer so shared nodes stay shared.
func encodeCond(w *WireProgram, idx map[*cCond]int32, c *cCond) (int32, error) {
	if i, ok := idx[c]; ok {
		return i, nil
	}
	wc := WireCCond{
		Kind: c.Kind, FP: c.FP, HasStatic: c.HasStatic, StaticErr: c.StaticErr,
		B: c.B, Op: c.Op, L: c.L, R: c.R,
		Val: c.Val, Mask: c.Mask, PLen: c.PLen, PW: c.PW, Key: c.Key,
		C: -1,
	}
	if c.HasStatic && c.StaticErr == "" {
		st, err := expr.EncodeCond(c.Static)
		if err != nil {
			return 0, err
		}
		wc.Static = st
	}
	if c.Kind == cIntervalTable {
		// A lowered guard ships its rows, never its Or-tree view.
		wc.ITF = c.IT.F
		wc.ITRows = expr.PackGuardRows(c.IT.Rows)
	}
	for _, sub := range c.Cs {
		si, err := encodeCond(w, idx, sub)
		if err != nil {
			return 0, err
		}
		wc.Cs = append(wc.Cs, si)
	}
	if c.C != nil {
		si, err := encodeCond(w, idx, c.C)
		if err != nil {
			return 0, err
		}
		wc.C = si
	}
	i := int32(len(w.CondTab))
	w.CondTab = append(w.CondTab, wc)
	idx[c] = i
	return i, nil
}

// DecodeProgram rebuilds a compiled program from its wire form. The result
// is immutable and concurrency-safe exactly like a freshly compiled program;
// For-body caches start empty and warm up on first use. Decoding derives the
// segment continuations as compiling does (link), so a shipped program that
// is not a tree of segments is refused.
func DecodeProgram(w *WireProgram) (*Program, error) {
	if w == nil {
		return nil, fmt.Errorf("prog: decode: program entry without a program")
	}
	if err := checkSegs(w); err != nil {
		return nil, fmt.Errorf("prog: decode %s: %w", w.Label, err)
	}
	p := &Program{
		Elem:      w.Elem,
		Instance:  w.Instance,
		Label:     w.Label,
		Entry:     w.Entry,
		Segs:      slices.Clone(w.Segs), // link writes them, and w may alias a program's
		Conds:     w.Conds,
		CondsSeen: w.CondsSeen,
		Ops:       make([]Op, len(w.Ops)),
	}
	conds := make([]*cCond, len(w.CondTab))
	// incomplete[i] names what cond i's tree lacks ("" when nothing); the
	// conds are a DAG, so each node is checked once, after its children.
	incomplete := make([]string, len(w.CondTab))
	for i := range w.CondTab {
		wc := &w.CondTab[i]
		c := &cCond{
			Kind: wc.Kind, FP: wc.FP, HasStatic: wc.HasStatic, StaticErr: wc.StaticErr,
			B: wc.B, Op: wc.Op, L: wc.L, R: wc.R,
			Val: wc.Val, Mask: wc.Mask, PLen: wc.PLen, PW: wc.PW, Key: wc.Key,
		}
		if wc.Kind == cIntervalTable {
			if len(wc.ITRows) == 0 {
				return nil, fmt.Errorf("prog: decode %s: interval-table cond %d without rows", w.Label, i)
			}
			rows, err := expr.UnpackGuardRows(wc.ITRows)
			if err != nil {
				return nil, fmt.Errorf("prog: decode %s cond %d: %w", w.Label, i, err)
			}
			it := &ITable{F: wc.ITF, W: wc.ITF.Size, Rows: rows}
			buildITable(it)
			c.IT = it
		}
		if wc.Static != nil {
			st, err := expr.DecodeCond(wc.Static)
			if err != nil {
				return nil, fmt.Errorf("prog: decode %s cond %d: %w", w.Label, i, err)
			}
			c.Static = st
		}
		for _, si := range wc.Cs {
			if si < 0 || int(si) >= i {
				return nil, fmt.Errorf("prog: decode %s: cond %d references out-of-order child %d", w.Label, i, si)
			}
			c.Cs = append(c.Cs, conds[si])
		}
		if wc.C >= 0 {
			if int(wc.C) >= i {
				return nil, fmt.Errorf("prog: decode %s: cond %d references out-of-order child %d", w.Label, i, wc.C)
			}
			c.C = conds[wc.C]
		}
		conds[i] = c
		incomplete[i] = condMissing(i, c)
		for _, si := range wc.Cs {
			incomplete[i] = cmp.Or(incomplete[i], incomplete[si])
		}
		if wc.C >= 0 {
			incomplete[i] = cmp.Or(incomplete[i], incomplete[wc.C])
		}
	}
	for i := range w.Ops {
		wop := &w.Ops[i]
		op := Op{
			Kind: wop.Kind, LV: wop.LV, Size: wop.Size, E: wop.E,
			Msg: wop.Msg, Tag: wop.Tag, Port: wop.Port, Ports: wop.Ports,
			Then: wop.Then, Else: wop.Else,
		}
		if op.Kind == OpForward {
			op.Ports = []int{op.Port}
		}
		if wop.Ins != nil {
			ins, err := sefl.DecodeInstr(wop.Ins)
			if err != nil {
				return nil, fmt.Errorf("prog: decode %s op %d: %w", w.Label, i, err)
			}
			op.Ins = ins
		}
		if wop.C >= 0 {
			if int(wop.C) >= len(conds) {
				return nil, fmt.Errorf("prog: decode %s: op %d references missing cond %d", w.Label, i, wop.C)
			}
			op.C = conds[wop.C]
		}
		if wop.HasFor {
			f, ok := op.Ins.(sefl.For)
			if !ok {
				return nil, fmt.Errorf("prog: decode %s: For op %d without a For instruction", w.Label, i)
			}
			op.For = newForOp(wop.ForPattern, f.Body)
		}
		missing := opMissing(&op)
		if missing == "" && op.E != nil {
			if m := exprMissing(op.E); m != "" {
				missing = "has an incomplete expression: " + m
			}
		}
		if missing == "" && op.C != nil && incomplete[wop.C] != "" {
			missing = "has an incomplete condition: " + incomplete[wop.C]
		}
		if missing != "" {
			return nil, fmt.Errorf("prog: decode %s: op %d of kind %d %s", w.Label, i, op.Kind, missing)
		}
		p.Ops[i] = op
	}
	if err := link(p); err != nil {
		return nil, fmt.Errorf("prog: decode %s: %w", w.Label, err)
	}
	return p, nil
}

// opMissing names what a decoded op lacks of what its kind reads ("" when
// nothing): the executors read these without a check, as the compiler
// always fills them.
func opMissing(op *Op) string {
	switch op.Kind {
	case OpAssign, OpCreateTag:
		if op.E == nil {
			return "has no expression"
		}
	case OpConstrain:
		if op.C == nil {
			return "has no condition"
		}
		// A failed constraint renders its instruction's condition.
		if _, ok := op.Ins.(sefl.Constrain); !ok {
			return "has no Constrain instruction"
		}
	case OpIf:
		if op.C == nil {
			return "has no condition"
		}
	case OpFor:
		if op.For == nil {
			return "has no loop"
		}
	default:
		if op.Kind > OpUnknown {
			return "is past the last kind"
		}
	}
	return ""
}

// condMissing names what cond i lacks of what its kind reads ("" when
// nothing), leaving its children's own trees to their checks. A cAnd or cOr
// reads nothing of its own: its children are indices the decoder bounds.
func condMissing(i int, c *cCond) string {
	var m string
	switch c.Kind {
	case cCmp:
		if c.L == nil || c.R == nil {
			return fmt.Sprintf("cond %d of kind %d lacks an operand", i, c.Kind)
		}
		m = cmp.Or(exprMissing(c.L), exprMissing(c.R))
	case cPrefix, cMasked:
		if c.L == nil {
			return fmt.Sprintf("cond %d of kind %d has no subject", i, c.Kind)
		}
		m = exprMissing(c.L)
	case cNot:
		if c.C == nil {
			return fmt.Sprintf("cond %d of kind %d has no child", i, c.Kind)
		}
	}
	if m != "" {
		return fmt.Sprintf("cond %d of kind %d: %s", i, c.Kind, m)
	}
	return ""
}

// exprMissing names what an expression tree lacks ("" when nothing): the
// executors read an arithmetic node's operands without a check.
func exprMissing(e *CExpr) string {
	if e.Kind != eArith {
		return ""
	}
	if e.A == nil || e.B == nil {
		return "an arithmetic node lacks an operand"
	}
	return cmp.Or(exprMissing(e.A), exprMissing(e.B))
}

// checkSegs holds a shipped program to what compileSeg guarantees of a
// compiled one: segments lie in the op array in ID order without
// overlapping (so this check is linear), Entry names one, and the segments
// an If enters (its arms) were emitted before the segment holding it.
// Execution then only ever enters lower segment IDs, so no bytes can make it
// recurse forever — a stack overflow is fatal, not a panic any per-job
// recover catches — and link can settle continuations top-down.
func checkSegs(w *WireProgram) error {
	if w.Entry < 0 || int(w.Entry) >= len(w.Segs) {
		return fmt.Errorf("entry segment %d out of range [0, %d)", w.Entry, len(w.Segs))
	}
	end := int32(0) // the previous segment's Hi
	for id, s := range w.Segs {
		if s.Lo < end || s.Hi < s.Lo || int(s.Hi) > len(w.Ops) {
			return fmt.Errorf("segment %d spans ops [%d,%d): not within [%d,%d)", id, s.Lo, s.Hi, end, len(w.Ops))
		}
		end = s.Hi
		for i := s.Lo; i < s.Hi; i++ {
			if op := &w.Ops[i]; op.Kind == OpIf {
				for _, to := range [2]SegID{op.Then, op.Else} {
					if to < 0 || int(to) >= id {
						return fmt.Errorf("op %d in segment %d enters segment %d; want an earlier one", i, id, to)
					}
				}
			}
		}
	}
	return nil
}
