package prog

import (
	"fmt"
	"strings"
)

// String renders the program's IR for inspection (cmd/symnet -dump-ir):
// one line per op, segments in emission order, branch targets as segment
// ids. Conditions render their compiled form, with static-fold
// annotations.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s (elem %s, instance %d): %d ops, %d segs, entry seg%d\n",
		p.Label, p.Elem, p.Instance, len(p.Ops), len(p.Segs), p.Entry)
	for id, seg := range p.Segs {
		term := ""
		if seg.Terminates {
			term = " terminates"
		}
		fmt.Fprintf(&b, "seg%d:%s\n", id, term)
		if seg.Lo == seg.Hi {
			fmt.Fprintf(&b, "  (empty)\n")
		}
		for i := seg.Lo; i < seg.Hi; i++ {
			fmt.Fprintf(&b, "  %3d: %s\n", i, p.opString(&p.Ops[i]))
		}
	}
	return b.String()
}

func (p *Program) opString(op *Op) string {
	switch op.Kind {
	case OpNoOp:
		return "nop"
	case OpAllocate:
		return fmt.Sprintf("alloc   %s size=%d", lvString(op.LV), op.Size)
	case OpDeallocate:
		return fmt.Sprintf("dealloc %s size=%d", lvString(op.LV), op.Size)
	case OpAssign:
		return fmt.Sprintf("assign  %s <- %s", lvString(op.LV), exprString(op.E))
	case OpCreateTag:
		return fmt.Sprintf("tag     %q <- %s", op.Tag, exprString(op.E))
	case OpDestroyTag:
		return fmt.Sprintf("untag   %q", op.Tag)
	case OpConstrain:
		return fmt.Sprintf("assert  %s", condString(op.C))
	case OpFail:
		return fmt.Sprintf("fail    %q", op.Msg)
	case OpIf:
		return fmt.Sprintf("branch  %s ? seg%d : seg%d", condString(op.C), op.Then, op.Else)
	case OpFor:
		if op.For.Re == nil {
			return fmt.Sprintf("for     %q (bad pattern)", op.For.Pattern)
		}
		return fmt.Sprintf("for     %q", op.For.Pattern)
	case OpForward:
		return fmt.Sprintf("forward -> %d", op.Port)
	case OpFork:
		parts := make([]string, len(op.Ports))
		for i, pt := range op.Ports {
			parts[i] = fmt.Sprintf("%d", pt)
		}
		return "fork    -> {" + strings.Join(parts, ",") + "}"
	case OpUnknown:
		return fmt.Sprintf("unknown %q", op.Msg)
	}
	return fmt.Sprintf("op?%d", op.Kind)
}

func lvString(lv LV) string {
	if lv.Err != "" {
		return "<" + lv.Err + ">"
	}
	if lv.IsHdr {
		if lv.Tag == "" {
			return fmt.Sprintf("hdr[%d:%d]", lv.Rel, lv.Size)
		}
		return fmt.Sprintf("hdr[Tag(%s)%+d:%d]", lv.Tag, lv.Rel, lv.Size)
	}
	return lv.Key.String()
}

func exprString(e *CExpr) string {
	var s string
	switch e.Kind {
	case eNum:
		s = fmt.Sprintf("%d:w%d", e.V, e.W)
	case eSym:
		s = fmt.Sprintf("fresh(%s:w%d)", e.Name, e.W)
	case eRef:
		s = lvString(e.LV)
	case eTagVal:
		s = fmt.Sprintf("Tag(%s)%+d", e.Tag, e.Rel)
	case eArith:
		opc := "+"
		if e.Minus {
			opc = "-"
		}
		s = "(" + exprString(e.A) + " " + opc + " " + exprString(e.B) + ")"
	default:
		s = "<" + e.Err + ">"
	}
	if e.Folded != nil {
		s += fmt.Sprintf(" [folded=%s:w%d]", e.Folded, e.Folded.Width)
	}
	return s
}

// condString renders a condition compactly; very wide And/Or nodes and
// tables (egress guards) are elided to keep dumps readable. A table renders
// its field and its span table (the first four spans and a count when there
// are more than five).
func condString(c *cCond) string {
	var s string
	switch c.Kind {
	case cBool:
		s = fmt.Sprintf("%v", c.B)
	case cCmp:
		s = exprString(c.L) + " " + c.Op.String() + " " + exprString(c.R)
	case cPrefix:
		s = fmt.Sprintf("%s in %d/%d", exprString(c.L), c.Val, c.PLen)
	case cMetaPresent:
		s = "present(" + c.Key.String() + ")"
	case cTagPresent:
		s = "present(" + c.Tag + ")"
	case cAnd, cOr:
		sep := " & "
		if c.Kind == cOr {
			sep = " | "
		}
		s = "(" + elide(len(c.Cs), sep, func(i int) string { return condString(c.Cs[i]) }) + ")"
	case cIntervalTable:
		s = lvString(c.IT.F) + " in table" + c.IT.Table.String()
	case cNot:
		s = "!(" + condString(c.C) + ")"
	}
	if c.HasStatic {
		if c.StaticErr != "" {
			s += fmt.Sprintf(" [static-err=%q]", c.StaticErr)
		} else {
			s += fmt.Sprintf(" [static=%s]", c.Static)
		}
	}
	return s
}

// elide joins n rendered items with sep, or the first and a count when there
// are more than eight.
func elide(n int, sep string, item func(int) string) string {
	if n > 8 {
		return fmt.Sprintf("%s%s... %d terms", item(0), sep, n)
	}
	parts := make([]string, n)
	for i := range parts {
		parts[i] = item(i)
	}
	return strings.Join(parts, sep)
}
