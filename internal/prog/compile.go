package prog

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"time"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/persist"
	"symnet/internal/sefl"
)

// Compile lowers one element-port SEFL program to a flat IR Program for the
// given element (name and instance scope local metadata and trace lines).
// Compilation never fails: constructs the compiler cannot lower statically
// (unknown instruction types, bad For patterns) become ops that reproduce
// the AST interpreter's runtime failure exactly.
func Compile(code sefl.Instr, elem string, instance int, label string) *Program {
	t0 := time.Now()
	c := &compiler{
		p:     &Program{Elem: elem, Instance: instance, Label: label},
		conds: make(map[expr.Fp][]*cCond),
	}
	c.p.Entry = c.compileSeg([]sefl.Instr{code})
	link(c.p)
	compileCount.Add(1)
	compileNs.Add(time.Since(t0).Nanoseconds())
	return c.p
}

type compiler struct {
	p     *Program
	conds map[expr.Fp][]*cCond // hash-consing table for guard dedup
}

// compileSeg compiles an instruction sequence into a new segment. Child
// segments (If branches) are emitted first, so a segment's ops are
// contiguous in the program's op array.
func (c *compiler) compileSeg(is []sefl.Instr) SegID {
	buf := make([]Op, 0, segOps(is))
	terminated := false // every state reaching this point has terminated
	c.emitList(&buf, is, &terminated)
	lo := int32(len(c.p.Ops))
	c.p.Ops = append(c.p.Ops, buf...)
	id := SegID(len(c.p.Segs))
	c.p.Segs = append(c.p.Segs, Seg{Lo: lo, Hi: int32(len(c.p.Ops)), Terminates: terminated})
	return id
}

// segOps counts the ops emit appends for an instruction sequence: one per
// instruction, blocks spliced, an If's arms left to their own segments. It
// sizes a segment's buffer, so compiling never grows one by doubling (an Op
// is a few hundred bytes).
func segOps(is []sefl.Instr) int {
	n := 0
	for _, ins := range is {
		if b, ok := ins.(sefl.Block); ok {
			n += segOps(b.Is)
		} else {
			n++
		}
	}
	return n
}

// emitList emits ops for an instruction sequence into buf. Ops after the
// point where every state has terminated are dead code and dropped (the AST
// interpreter's status guard would skip them unexecuted and untraced, so
// dropping is observationally identical).
func (c *compiler) emitList(buf *[]Op, is []sefl.Instr, terminated *bool) {
	for _, ins := range is {
		if *terminated {
			return
		}
		c.emit(buf, ins, terminated)
	}
}

func (c *compiler) emit(buf *[]Op, ins sefl.Instr, terminated *bool) {
	switch v := ins.(type) {
	case sefl.Block:
		// A block splices into its segment: every executor runs a sequence
		// state-major, so a block boundary is not observable.
		c.emitList(buf, v.Is, terminated)

	case sefl.NoOp:
		*buf = append(*buf, Op{Kind: OpNoOp, Ins: ins})

	case sefl.Allocate:
		*buf = append(*buf, Op{Kind: OpAllocate, Ins: ins, LV: c.compileLV(v.LV), Size: allocSize(v.LV, v.Size)})

	case sefl.Deallocate:
		*buf = append(*buf, Op{Kind: OpDeallocate, Ins: ins, LV: c.compileLV(v.LV), Size: allocSize(v.LV, v.Size)})

	case sefl.Assign:
		lv := c.compileLV(v.LV)
		e := c.compileExpr(v.E)
		if lv.IsHdr {
			// The width hint of a header assignment is the declared field
			// size — statically known, so hint-dependent expressions fold
			// here too (a metadata assignment's hint is the runtime width).
			c.foldWithHint(e, lv.Size)
		}
		*buf = append(*buf, Op{Kind: OpAssign, Ins: ins, LV: lv, E: e})

	case sefl.CreateTag:
		e := c.compileExpr(v.E)
		c.foldWithHint(e, 64)
		*buf = append(*buf, Op{
			Kind: OpCreateTag, Ins: ins, Tag: v.Name, E: e,
			Msg: fmt.Sprintf("CreateTag(%q): tag value must be concrete", v.Name),
		})

	case sefl.DestroyTag:
		*buf = append(*buf, Op{Kind: OpDestroyTag, Ins: ins, Tag: v.Name})

	case sefl.Constrain:
		*buf = append(*buf, Op{Kind: OpConstrain, Ins: ins, C: c.compileCond(v.C)})

	case sefl.Fail:
		*buf = append(*buf, Op{Kind: OpFail, Ins: ins, Msg: v.Msg})
		*terminated = true

	case sefl.If:
		cond := c.compileCond(v.C)
		thenSeg := c.compileSeg([]sefl.Instr{v.Then})
		elseSeg := c.compileSeg([]sefl.Instr{v.Else})
		*buf = append(*buf, Op{Kind: OpIf, Ins: ins, C: cond, Then: thenSeg, Else: elseSeg})
		if c.p.Segs[thenSeg].Terminates && c.p.Segs[elseSeg].Terminates {
			*terminated = true
		}

	case sefl.For:
		*buf = append(*buf, Op{Kind: OpFor, Ins: ins, For: newForOp(v.Pattern, v.Body)})

	case sefl.Forward:
		*buf = append(*buf, Op{Kind: OpForward, Ins: ins, Port: v.Port, Ports: []int{v.Port}})
		*terminated = true

	case sefl.Fork:
		*buf = append(*buf, Op{Kind: OpFork, Ins: ins, Ports: v.Ports})
		*terminated = true

	default:
		*buf = append(*buf, Op{Kind: OpUnknown, Ins: ins, Msg: fmt.Sprintf("unknown instruction %T", ins)})
	}
}

// newForOp builds the runtime payload of an OpFor: the pattern compiled
// once, or the exact bad-pattern failure message the AST interpreter gives.
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

// allocSize applies the AST interpreter's size defaulting: a zero
// Allocate/Deallocate size borrows the header l-value's declared size.
func allocSize(lv sefl.LValue, size int) int {
	if size == 0 {
		if h, ok := lv.(sefl.Hdr); ok {
			size = h.Size
		}
	}
	return size
}

// compileLV pre-resolves an l-value: metadata binds its full key (the
// element instance is a compile input), tag-free header offsets are already
// absolute.
func (c *compiler) compileLV(lv sefl.LValue) LV {
	switch v := lv.(type) {
	case sefl.Hdr:
		return hdrLV(v)
	case sefl.Meta:
		inst := memory.GlobalScope
		if v.Pinned {
			inst = v.Instance
		} else if v.Local {
			inst = c.p.Instance
		}
		return LV{Key: memory.MetaKey{Name: v.Name, Instance: inst}}
	}
	return LV{Err: fmt.Sprintf("unknown l-value %T", lv)}
}

func hdrLV(h sefl.Hdr) LV {
	return LV{IsHdr: true, Tag: h.Off.Tag, Rel: h.Off.Rel, Size: h.Size}
}

// compileExpr lowers an expression, folding subtrees whose value is
// independent of the evaluation hint (fixed-width literals and arithmetic
// over them) to their exact runtime value.
func (c *compiler) compileExpr(e sefl.Expr) *CExpr {
	switch v := e.(type) {
	case sefl.Num:
		ce := &CExpr{Kind: eNum, V: v.V, W: v.W}
		if v.W != 0 {
			l := expr.Const(v.V, v.W)
			ce.Folded = &l
		}
		return ce
	case sefl.Symbolic:
		return &CExpr{Kind: eSym, W: v.W, Name: v.Name}
	case sefl.Ref:
		return &CExpr{Kind: eRef, LV: c.compileLV(v.LV)}
	case sefl.TagVal:
		return &CExpr{Kind: eTagVal, Tag: v.Tag, Rel: v.Rel}
	case sefl.Add:
		return c.compileArith(v.A, v.B, false)
	case sefl.Sub:
		return c.compileArith(v.A, v.B, true)
	}
	return &CExpr{Err: fmt.Sprintf("unknown expression %T", e)}
}

func (c *compiler) compileArith(a, b sefl.Expr, minus bool) *CExpr {
	ce := &CExpr{Kind: eArith, A: c.compileExpr(a), B: c.compileExpr(b), Minus: minus}
	// Fold constant arithmetic: when the left operand folded (so its width
	// is fixed), the right operand's hint is that width, and a literal or
	// folded right operand makes the whole node hint-independent. The
	// computation below is evalArith's constant/constant case verbatim.
	la := ce.A.Folded
	if la == nil {
		return ce
	}
	var lb expr.Lin
	switch {
	case ce.B.Folded != nil:
		lb = *ce.B.Folded
	case ce.B.Kind == eNum:
		lb = expr.Const(ce.B.V, la.Width)
	default:
		return ce
	}
	va, aOK := la.ConstVal()
	vb, bOK := lb.ConstVal()
	if !aOK || !bOK {
		return ce
	}
	w := la.Width
	if lb.Width > w {
		w = lb.Width
	}
	var l expr.Lin
	if minus {
		l = expr.Const(va-vb, w)
	} else {
		l = expr.Const(va+vb, w)
	}
	ce.Folded = &l
	return ce
}

// foldWithHint folds a hint-dependent static expression once the context's
// width hint is statically known (header assignments, tag creation). Only
// the root node is annotated: it is private to its op, while subtrees could
// in principle be shared.
func (c *compiler) foldWithHint(e *CExpr, hint int) {
	if e.Folded != nil || !exprStatic(e) {
		return
	}
	if l, err := EvalExpr(nil, e, hint); err == nil {
		e.Folded = &l
	}
}

// exprStatic reports whether evaluating e touches neither the packet nor
// the symbol allocator, i.e. the evaluation is a pure function of the hint.
func exprStatic(e *CExpr) bool {
	switch e.Kind {
	case eNum:
		return e.Err == ""
	case eArith:
		return e.Err == "" && exprStatic(e.A) && exprStatic(e.B)
	}
	return false
}

// compileCond lowers a condition bottom-up, hash-consing structurally equal
// nodes (guard dedup) and precomputing the value — or the exact evaluation
// error — of nodes whose evaluation is static.
func (c *compiler) compileCond(sc sefl.Cond) *cCond {
	var cc *cCond
	switch v := sc.(type) {
	case sefl.CBool:
		cc = &cCond{Kind: cBool, B: bool(v)}
	case sefl.Cmp:
		cc = &cCond{Kind: cCmp, Op: v.Op, L: c.compileExpr(v.L), R: c.compileExpr(v.R)}
	case sefl.Prefix:
		cc = &cCond{Kind: cPrefix, L: c.compileExpr(v.E), Val: v.Value, PLen: v.Len, PW: cmp.Or(v.Width, 32)}
	case sefl.Masked:
		cc = &cCond{Kind: cMasked, L: c.compileExpr(v.E), Mask: v.Mask, Val: v.Val}
	case sefl.MetaPresent:
		lv := c.compileLV(v.M)
		cc = &cCond{Kind: cMetaPresent, Key: lv.Key}
	case sefl.CAnd:
		cs := make([]*cCond, len(v.Cs))
		for i, sub := range v.Cs {
			cs[i] = c.compileCond(sub)
		}
		cc = &cCond{Kind: cAnd, Cs: cs}
	case sefl.Table:
		// A table guard lowers to its rows, which the node aliases, and the
		// span table they came with (a router's) or else the one
		// buildITable merges. A malformed table, or one too small to be
		// worth a span table (expr.TableSized), compiles as the Or-tree it
		// stands for.
		if v.Check() != nil || !expr.TableSized(v.Rows) {
			return c.compileCond(v.Or())
		}
		it := &ITable{F: hdrLV(v.F), Rows: v.Rows, Table: v.Spans}
		if it.Table == nil {
			it.Table = buildITable(v.Rows, v.F.Size)
		}
		cc = &cCond{Kind: cIntervalTable, IT: it}
		itableLowered.Add(1)
	case sefl.COr:
		cs := make([]*cCond, len(v.Cs))
		for i, sub := range v.Cs {
			cs[i] = c.compileCond(sub)
		}
		cc = &cCond{Kind: cOr, Cs: cs}
	case sefl.CNot:
		cc = &cCond{Kind: cNot, C: c.compileCond(v.C)}
	default:
		// Unknown condition types fail at evaluation like the AST
		// interpreter's default case.
		cc = &cCond{
			Kind: cBool, HasStatic: true,
			StaticErr: fmt.Sprintf("unknown condition %T", sc),
		}
		cc.FP = fpString(cc.StaticErr)
		return cc
	}
	cc.FP = fpCond(cc)
	c.p.CondsSeen++
	for _, cand := range c.conds[cc.FP] {
		if equalCCond(cand, cc) {
			return cand
		}
	}
	if condStatic(cc) {
		cond, err := evalCondDynamic(nil, cc)
		cc.HasStatic = true
		if err != nil {
			cc.StaticErr = err.Error()
		} else {
			cc.Static = cond
		}
	}
	c.conds[cc.FP] = append(c.conds[cc.FP], cc)
	c.p.Conds++
	return cc
}

// condStatic reports whether evaluating the condition is a pure function:
// no packet reads, no symbol allocation. Children are already compiled, so
// composite nodes just consult their children's HasStatic.
func condStatic(cc *cCond) bool {
	switch cc.Kind {
	case cBool:
		return true
	case cCmp:
		return exprStatic(cc.L) && exprStatic(cc.R)
	case cPrefix, cMasked:
		return exprStatic(cc.L)
	case cMetaPresent, cIntervalTable:
		// Every row of a table reads its field.
		return false
	case cAnd, cOr:
		for _, sub := range cc.Cs {
			if !sub.HasStatic {
				return false
			}
		}
		return true
	case cNot:
		return cc.C.HasStatic
	}
	return false
}

// --- Structural fingerprints (guard dedup) ---

// The dedup table is keyed by 128-bit structural fingerprints built with
// the expr package's chained-fingerprint combinator, with a structural
// equality check on collisions (equality is cheap: children are already
// hash-consed, so deep comparison bottoms out in pointer equality).

func fpWord(x uint64) expr.Fp {
	return expr.Fp{Hi: x, Lo: x * 0x9e3779b97f4a7c15}
}

func fpString(s string) expr.Fp {
	h := persist.HashString(s)
	return expr.Fp{Hi: h, Lo: persist.Mix64(h)}
}

func fpExpr(e *CExpr) expr.Fp {
	f := fpWord(uint64(e.Kind) + 0x11)
	switch e.Kind {
	case eNum:
		f = f.Chain(fpWord(e.V)).Chain(fpWord(uint64(e.W)))
	case eSym:
		f = f.Chain(fpWord(uint64(e.W))).Chain(fpString(e.Name))
	case eRef:
		f = fpRef(e.LV)
	case eTagVal:
		f = f.Chain(fpString(e.Tag)).Chain(fpWord(uint64(e.Rel)))
	case eArith:
		if e.Minus {
			f = f.Chain(fpWord(1))
		}
		f = f.Chain(fpExpr(e.A)).Chain(fpExpr(e.B))
	}
	if e.Err != "" {
		f = f.Chain(fpString(e.Err))
	}
	return f
}

func fpRef(lv LV) expr.Fp { return fpWord(uint64(eRef) + 0x11).Chain(fpLV(lv)) }

func fpLV(lv LV) expr.Fp {
	f := fpWord(uint64(lv.Rel))
	if lv.IsHdr {
		f = f.Chain(fpWord(uint64(lv.Size) + 1)).Chain(fpString(lv.Tag))
	} else {
		f = f.Chain(fpString(lv.Key.Name)).Chain(fpWord(uint64(int64(lv.Key.Instance))))
	}
	if lv.Err != "" {
		f = f.Chain(fpString(lv.Err))
	}
	return f
}

func fpCond(cc *cCond) expr.Fp {
	f := fpWord(uint64(cc.Kind) + 0x29)
	switch cc.Kind {
	case cBool:
		if cc.B {
			f = f.Chain(fpWord(1))
		}
	case cCmp:
		f = f.Chain(fpWord(uint64(cc.Op))).Chain(fpExpr(cc.L)).Chain(fpExpr(cc.R))
	case cPrefix:
		f = f.Chain(fpExpr(cc.L)).Chain(fpWord(cc.Val)).
			Chain(fpWord(uint64(cc.PLen))).Chain(fpWord(uint64(cc.PW)))
	case cMasked:
		f = f.Chain(fpExpr(cc.L)).Chain(fpWord(cc.Mask)).Chain(fpWord(cc.Val))
	case cMetaPresent:
		f = f.Chain(fpString(cc.Key.Name)).Chain(fpWord(uint64(int64(cc.Key.Instance))))
	case cAnd, cOr:
		f = f.Chain(fpWord(uint64(len(cc.Cs))))
		for _, sub := range cc.Cs {
			f = f.Chain(sub.FP)
		}
	case cIntervalTable:
		// The span table's fingerprint is precomputed and covers its width;
		// equalCCond tells apart tables whose rows differ but merge alike.
		f = f.Chain(fpRef(cc.IT.F)).Chain(cc.IT.Table.Fp())
	case cNot:
		f = f.Chain(cc.C.FP)
	}
	return f
}

func equalCCond(a, b *cCond) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case cBool:
		return a.B == b.B && a.StaticErr == b.StaticErr
	case cCmp:
		return a.Op == b.Op && equalCExpr(a.L, b.L) && equalCExpr(a.R, b.R)
	case cPrefix:
		return a.Val == b.Val && a.PLen == b.PLen && a.PW == b.PW && equalCExpr(a.L, b.L)
	case cMasked:
		return a.Mask == b.Mask && a.Val == b.Val && equalCExpr(a.L, b.L)
	case cMetaPresent:
		return a.Key == b.Key
	case cIntervalTable:
		return a.IT.F == b.IT.F && slices.EqualFunc(a.IT.Rows, b.IT.Rows, func(x, y itRow) bool {
			return x.Kind == y.Kind && x.V == y.V && x.Len == y.Len && slices.Equal(x.Excl, y.Excl)
		})
	case cAnd, cOr:
		if len(a.Cs) != len(b.Cs) {
			return false
		}
		for i := range a.Cs {
			// Children are hash-consed: identity is equality.
			if a.Cs[i] != b.Cs[i] {
				return false
			}
		}
		return true
	case cNot:
		return a.C == b.C
	}
	return false
}

func equalCExpr(a, b *CExpr) bool {
	if a.Kind != b.Kind || a.Err != b.Err {
		return false
	}
	switch a.Kind {
	case eNum:
		return a.V == b.V && a.W == b.W
	case eSym:
		return a.W == b.W && a.Name == b.Name
	case eRef:
		return a.LV == b.LV
	case eTagVal:
		return a.Tag == b.Tag && a.Rel == b.Rel
	case eArith:
		return a.Minus == b.Minus && equalCExpr(a.A, b.A) && equalCExpr(a.B, b.B)
	}
	return true
}
