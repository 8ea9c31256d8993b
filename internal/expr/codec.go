package expr

// Wire codec for the solver-level condition algebra. Compiled programs carry
// expr.Cond values (compile-time-folded guards) and expr.Lin values (folded
// expressions); shipping programs to distributed workers needs a concrete
// form for both. Lin is already a flat value type; conditions become tagged
// WireExprCond nodes. Fingerprints are structural (HashCond is stable across
// processes), so a decoded condition chains into a solver context's
// fingerprint exactly as the original does.

import (
	"fmt"
	"slices"
)

// Wire node kinds for WireExprCond.
const (
	wireBool uint8 = iota
	wireCmp
	wireMatch
	wireAnd
	wireOr
	wireNot
	wireInSet
)

// WireExprCond is the concrete form of one Cond (a tagged union; fields used
// depend on Kind).
type WireExprCond struct {
	Kind  uint8
	B     bool            // Bool
	Op    uint8           // Cmp
	L, R  Lin             // Cmp operands; Match/InSet subject (L)
	Mask  uint64          // Match
	Val   uint64          // Match
	Cs    []*WireExprCond // And, Or
	C     *WireExprCond   // Not
	W     int             // InSet table width
	Spans []Span          // InSet packed ranges
}

// EncodeCond converts a condition to its wire form (nil stays nil).
func EncodeCond(c Cond) (*WireExprCond, error) {
	switch v := c.(type) {
	case nil:
		return nil, nil
	case Bool:
		return &WireExprCond{Kind: wireBool, B: bool(v)}, nil
	case Cmp:
		return &WireExprCond{Kind: wireCmp, Op: uint8(v.Op), L: v.L, R: v.R}, nil
	case Match:
		return &WireExprCond{Kind: wireMatch, L: v.L, Mask: v.Mask, Val: v.Val}, nil
	case And:
		cs, err := encodeCondSlice(v.Cs)
		if err != nil {
			return nil, err
		}
		return &WireExprCond{Kind: wireAnd, Cs: cs}, nil
	case Or:
		cs, err := encodeCondSlice(v.Cs)
		if err != nil {
			return nil, err
		}
		return &WireExprCond{Kind: wireOr, Cs: cs}, nil
	case Not:
		sub, err := EncodeCond(v.C)
		if err != nil {
			return nil, err
		}
		return &WireExprCond{Kind: wireNot, C: sub}, nil
	case InSet:
		// A packed guard crosses the wire as its raw spans — O(entries)
		// words, no per-atom nodes. They are a copy: decoding uses them as
		// NewSpanTable's scratch, and the table is shared.
		return &WireExprCond{Kind: wireInSet, L: v.L, W: v.T.Width(), Spans: slices.Clone(v.T.Spans())}, nil
	}
	return nil, fmt.Errorf("expr: cannot serialize condition type %T", c)
}

func encodeCondSlice(cs []Cond) ([]*WireExprCond, error) {
	out := make([]*WireExprCond, len(cs))
	for i, c := range cs {
		w, err := EncodeCond(c)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// DecodeCond rebuilds a condition from its wire form (nil stays nil).
func DecodeCond(w *WireExprCond) (Cond, error) {
	if w == nil {
		return nil, nil
	}
	switch w.Kind {
	case wireBool:
		return Bool(w.B), nil
	case wireCmp:
		return Cmp{Op: CmpOp(w.Op), L: w.L, R: w.R}, nil
	case wireMatch:
		return Match{L: w.L, Mask: w.Mask, Val: w.Val}, nil
	case wireAnd, wireOr:
		cs := make([]Cond, len(w.Cs))
		for i, sub := range w.Cs {
			d, err := DecodeCond(sub)
			if err != nil {
				return nil, err
			}
			cs[i] = d
		}
		if w.Kind == wireAnd {
			return And{Cs: cs}, nil
		}
		return Or{Cs: cs}, nil
	case wireNot:
		if w.C == nil {
			return nil, fmt.Errorf("expr: wire Not without an operand")
		}
		sub, err := DecodeCond(w.C)
		if err != nil {
			return nil, err
		}
		return Not{C: sub}, nil
	case wireInSet:
		t := NewSpanTable(w.W, w.Spans)
		if w.L.Width != t.Width() {
			return nil, fmt.Errorf("expr: wire InSet width mismatch: %d-bit term vs %d-bit table", w.L.Width, w.W)
		}
		return InSet{L: w.L, T: t}, nil
	}
	return nil, fmt.Errorf("expr: unknown wire condition kind %d", w.Kind)
}
