package prog

import (
	"cmp"
	"fmt"
	"regexp"
	"time"

	"symnet/internal/expr"
	"symnet/internal/memory"
	"symnet/internal/sefl"
)

// Compile lowers one element-port SEFL program to a flat IR Program for the
// given element (name and instance scope local metadata and trace lines).
// Compilation never fails: constructs the compiler cannot lower statically
// (unknown instruction types, bad For patterns) become ops that reproduce
// the AST interpreter's runtime failure exactly.
func Compile(code sefl.Instr, elem string, instance int, label string) *Program {
	t0 := time.Now()
	c := &compiler{p: &Program{Elem: elem, Instance: instance, Label: label}}
	c.p.Entry = c.compileSeg([]sefl.Instr{code})
	link(c.p)
	compileCount.Add(1)
	compileNs.Add(time.Since(t0).Nanoseconds())
	return c.p
}

type compiler struct {
	p *Program
}

// compileSeg compiles an instruction sequence into a new segment. Child
// segments (If branches) are emitted first, so a segment's ops are
// contiguous in the program's op array.
func (c *compiler) compileSeg(is []sefl.Instr) SegID {
	buf := make([]Op, 0, segOps(is))
	terminated := false // every state reaching this point has terminated
	c.emitList(&buf, is, &terminated)
	lo := int32(len(c.p.Ops))
	if c.p.Ops == nil {
		c.p.Ops = buf // the first segment compiled keeps its buffer, uncopied
	} else {
		c.p.Ops = append(c.p.Ops, buf...)
	}
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
		// The loop reads the element's instance, and its bodies compile
		// for the element.
		c.p.readsElem = true
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
			c.p.readsElem = true
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
// the root node is annotated: the hint is the root's.
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

// compileCond lowers a condition bottom-up into a tree of its own nodes,
// precomputing the value — or the exact evaluation error — of nodes whose
// evaluation is static.
func (c *compiler) compileCond(sc sefl.Cond) *cCond {
	var cc *cCond
	switch v := sc.(type) {
	case sefl.CBool:
		cc = &cCond{Kind: cBool, B: bool(v)}
	case sefl.Cmp:
		cc = &cCond{Kind: cCmp, Op: v.Op, L: c.compileExpr(v.L), R: c.compileExpr(v.R)}
	case sefl.Prefix:
		cc = &cCond{Kind: cPrefix, L: c.compileExpr(v.E), Val: v.Value, PLen: v.Len, PW: cmp.Or(v.Width, 32)}
	case sefl.MetaPresent:
		lv := c.compileLV(v.M)
		cc = &cCond{Kind: cMetaPresent, Key: lv.Key}
	case sefl.TagPresent:
		cc = &cCond{Kind: cTagPresent, Tag: v.Tag}
	case sefl.CAnd:
		cs := make([]*cCond, len(v.Cs))
		for i, sub := range v.Cs {
			cs[i] = c.compileCond(sub)
		}
		cc = &cCond{Kind: cAnd, Cs: cs}
	case sefl.Table:
		// A table guard lowers to its span table (Table.SpanTable). A
		// malformed table fails at evaluation, as the AST interpreter's Check
		// does.
		if err := v.Check(); err != nil {
			return &cCond{Kind: cBool, HasStatic: true, StaticErr: err.Error()}
		}
		cc = &cCond{Kind: cIntervalTable, IT: &ITable{F: hdrLV(v.F), Table: v.SpanTable()}}
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
		return cc
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
	case cPrefix:
		return exprStatic(cc.L)
	case cMetaPresent, cTagPresent, cIntervalTable:
		// Presence is the packet's; every row of a table reads its field.
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
