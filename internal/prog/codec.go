// Wire codec for compiled programs. The distributed runner ships each
// element-port program to worker processes so they execute the exact IR the
// coordinator compiled instead of recompiling from the AST. Most IR nodes
// (Op scalars, LV, CExpr, CondInput, Seg) are concrete exported structs and
// travel as-is; the three non-concrete pieces are handled explicitly:
//
//   - Op.Ins (a sefl.Instr interface, needed for lazy trace lines and
//     failure messages) crosses as a sefl.WireInstr;
//   - condition nodes are hash-consed within a program (structurally equal
//     guards share one *CCond, and with it one evaluation memo), so the
//     codec flattens the unique nodes into an indexed table — children
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
	"fmt"
	"regexp"

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
	Sub   SegID
	// For ops: the loop pattern plus the registered body reference.
	HasFor     bool
	ForPattern string
	ForRef     string
	ForArg     string
}

// WireCCond is the concrete form of one condition node. Child conditions
// (And/Or members, Not operand) are table indices. A CIntervalTable node
// ships no child indices: its disjuncts cross the wire as the packed row
// stream (ITRows) — the frame-size win this lowering exists for — and the
// decoder rebuilds the span tables through the same construction the
// compiler uses, so the decoded node is byte-identical; like the compiler's
// it has no children until somebody asks for the Or-tree view.
type WireCCond struct {
	Kind       CondKind
	FP         expr.Fp
	HasStatic  bool
	Static     *expr.WireExprCond
	StaticErr  string
	Words      int
	HasSym     bool
	Memoizable bool
	Inputs     []CondInput
	B          bool
	Op         expr.CmpOp
	L, R       *CExpr
	Val, Mask  uint64
	PLen, PW   int
	Key        memory.MetaKey
	Cs         []int32
	C          int32
	// Interval-table payload (Kind == CIntervalTable).
	ITF       LV
	ITF2      LV
	ITGrouped bool
	ITRows    []uint64
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
	idx := make(map[*CCond]int32)
	for i := range p.Ops {
		op := &p.Ops[i]
		wop := WireOp{
			Kind: op.Kind, LV: op.LV, Size: op.Size, E: op.E, C: -1,
			Msg: op.Msg, Tag: op.Tag, Port: op.Port, Ports: op.Ports,
			Then: op.Then, Else: op.Else, Sub: op.Sub,
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
func encodeCond(w *WireProgram, idx map[*CCond]int32, c *CCond) (int32, error) {
	if i, ok := idx[c]; ok {
		return i, nil
	}
	wc := WireCCond{
		Kind: c.Kind, FP: c.FP, HasStatic: c.HasStatic, StaticErr: c.StaticErr,
		Words: c.Words, HasSym: c.HasSym, Memoizable: c.Memoizable,
		Inputs: c.Inputs, B: c.B, Op: c.Op, L: c.L, R: c.R,
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
	if c.Kind == CIntervalTable {
		// A lowered guard ships its rows, never its Or-tree view.
		wc.ITF = c.IT.F
		wc.ITF2 = c.IT.F2
		wc.ITGrouped = c.IT.Grouped
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
// evaluation memos and For-body caches start empty and warm up on first use.
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
		Segs:      w.Segs,
		Conds:     w.Conds,
		CondsSeen: w.CondsSeen,
		Ops:       make([]Op, len(w.Ops)),
	}
	conds := make([]*CCond, len(w.CondTab))
	for i := range w.CondTab {
		wc := &w.CondTab[i]
		c := &CCond{
			Kind: wc.Kind, FP: wc.FP, HasStatic: wc.HasStatic, StaticErr: wc.StaticErr,
			Words: wc.Words, HasSym: wc.HasSym, Memoizable: wc.Memoizable,
			Inputs: wc.Inputs, B: wc.B, Op: wc.Op, L: wc.L, R: wc.R,
			Val: wc.Val, Mask: wc.Mask, PLen: wc.PLen, PW: wc.PW, Key: wc.Key,
		}
		if wc.Kind == CIntervalTable {
			if len(wc.ITRows) == 0 {
				return nil, fmt.Errorf("prog: decode %s: interval-table cond %d without rows", w.Label, i)
			}
			rows, err := expr.UnpackGuardRows(wc.ITRows)
			if err != nil {
				return nil, fmt.Errorf("prog: decode %s cond %d: %w", w.Label, i, err)
			}
			it := &ITable{
				F: wc.ITF, W: wc.ITF.Size, Grouped: wc.ITGrouped,
				F2: wc.ITF2, W2: wc.ITF2.Size, Rows: rows,
			}
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
	}
	for i := range w.Ops {
		wop := &w.Ops[i]
		op := Op{
			Kind: wop.Kind, LV: wop.LV, Size: wop.Size, E: wop.E,
			Msg: wop.Msg, Tag: wop.Tag, Port: wop.Port, Ports: wop.Ports,
			Then: wop.Then, Else: wop.Else, Sub: wop.Sub,
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
		p.Ops[i] = op
	}
	return p, nil
}

// checkSegs holds a shipped program to what compileSeg guarantees of a
// compiled one: segments lie in the op array in ID order without
// overlapping (so this check is linear), Entry names one, and the segments
// an op enters (an If's arms, a Sub's block) were emitted before the segment
// holding it. Execution then only ever descends to lower segment IDs, so no
// bytes can make it recurse forever — a stack overflow is fatal, not a panic
// any per-job recover catches.
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
			var enters []SegID
			switch op := &w.Ops[i]; op.Kind {
			case OpIf:
				enters = []SegID{op.Then, op.Else}
			case OpSub:
				enters = []SegID{op.Sub}
			}
			for _, to := range enters {
				if to < 0 || int(to) >= id {
					return fmt.Errorf("op %d in segment %d enters segment %d; want an earlier one", i, id, to)
				}
			}
		}
	}
	return nil
}
