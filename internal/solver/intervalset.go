// Package solver decides satisfiability of SEFL path constraints and
// produces concrete models (test packets) for satisfiable paths.
//
// It plays the role Z3 plays in the original SymNet: the SEFL condition
// fragment — unsigned comparisons, masked (prefix) matches, boolean
// combinations, and equalities between (symbol + constant) terms — is
// decidable with exact interval-set domains per equivalence class, a
// union-find with offsets for symbol/symbol equalities, a disequality graph,
// and DPLL-style branching over residual disjunctions.
//
// The solver's single most important optimization for the paper's Fig. 8 is
// disjunction compression: an Or whose disjuncts all constrain the same
// symbol collapses into one interval-set union, so the egress switch model's
// "EtherDst == MAC1 | MAC2 | ..." port filters cost O(entries) total instead
// of exploding the search.
package solver

import (
	"fmt"
	"sort"
	"strings"

	"symnet/internal/expr"
)

// UnionAll merges many sets in one pass — O(total intervals * log) instead
// of the O(k²) cost of folding pairwise unions. This is what keeps the
// egress switch model's per-port "MAC ∈ {c1..ck}" constraints linear in the
// table size (the paper's Fig. 8 headline).
func UnionAll(width int, sets []*IntervalSet) *IntervalSet {
	total := 0
	for _, s := range sets {
		total += len(s.ivs)
	}
	merged := make([]interval, 0, total)
	for _, s := range sets {
		merged = append(merged, s.ivs...)
	}
	return normalize(width, merged)
}

// interval is an inclusive range [Lo, Hi] of uint64 values. It is an alias
// of expr.Span so packed guard tables (expr.SpanTable) convert to
// IntervalSets without copying — see fromSpanTable.
type interval = expr.Span

// IntervalSet is a sorted list of disjoint, non-adjacent inclusive intervals
// within the universe [0, 2^Width-1]. The zero value is the empty set with
// width 0; use full/empty/fromRange constructors. IntervalSets are immutable:
// all operations return new sets.
type IntervalSet struct {
	Width int
	ivs   []interval
}

// empty returns the empty set over a width-bit universe.
func empty(width int) *IntervalSet { return &IntervalSet{Width: width} }

// full returns the complete width-bit universe.
func full(width int) *IntervalSet {
	return &IntervalSet{Width: width, ivs: []interval{{Lo: 0, Hi: expr.Mask(width)}}}
}

// Singleton returns the one-element set {v}.
func Singleton(v uint64, width int) *IntervalSet {
	v &= expr.Mask(width)
	return &IntervalSet{Width: width, ivs: []interval{{Lo: v, Hi: v}}}
}

// fromSpanTable wraps a packed guard table as an IntervalSet without
// copying: SpanTable's canonical form (sorted, disjoint, non-adjacent,
// clipped) is exactly this package's interval invariant, and both sides are
// immutable, so the span slice is shared directly. This is what makes
// asserting a compiled interval-table guard O(1) in the table size up to
// the final domain intersection.
func fromSpanTable(t *expr.SpanTable) *IntervalSet {
	return &IntervalSet{Width: t.Width(), ivs: t.Spans()}
}

// fromRange returns [lo, hi] clipped to the universe; an empty set when
// lo > hi.
func fromRange(lo, hi uint64, width int) *IntervalSet {
	m := expr.Mask(width)
	if lo > m {
		return empty(width)
	}
	if hi > m {
		hi = m
	}
	if lo > hi {
		return empty(width)
	}
	return &IntervalSet{Width: width, ivs: []interval{{Lo: lo, Hi: hi}}}
}

// isEmpty reports whether the set has no elements.
func (s *IntervalSet) isEmpty() bool { return len(s.ivs) == 0 }

// isFull reports whether the set is the whole universe.
func (s *IntervalSet) isFull() bool {
	return len(s.ivs) == 1 && s.ivs[0].Lo == 0 && s.ivs[0].Hi == expr.Mask(s.Width)
}

// Intervals returns the underlying intervals (shared; do not mutate).
func (s *IntervalSet) Intervals() []interval { return s.ivs }

// Min returns the smallest element; ok is false for the empty set.
func (s *IntervalSet) Min() (uint64, bool) {
	if len(s.ivs) == 0 {
		return 0, false
	}
	return s.ivs[0].Lo, true
}

// Max returns the largest element; ok is false for the empty set.
func (s *IntervalSet) Max() (uint64, bool) {
	if len(s.ivs) == 0 {
		return 0, false
	}
	return s.ivs[len(s.ivs)-1].Hi, true
}

// Contains reports membership of v.
func (s *IntervalSet) Contains(v uint64) bool {
	// Binary search over sorted disjoint intervals.
	lo, hi := 0, len(s.ivs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		iv := s.ivs[mid]
		switch {
		case v < iv.Lo:
			hi = mid - 1
		case v > iv.Hi:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// Size returns the number of elements, saturating at MaxUint64.
func (s *IntervalSet) Size() uint64 {
	var n uint64
	for _, iv := range s.ivs {
		d := iv.Hi - iv.Lo + 1
		if d == 0 { // full 64-bit universe wraps to 0
			return ^uint64(0)
		}
		prev := n
		n += d
		if n < prev {
			return ^uint64(0)
		}
	}
	return n
}

// normalize sorts, merges overlapping/adjacent intervals in place and wraps
// the result. Input intervals must already be individually valid (Lo<=Hi).
func normalize(width int, ivs []interval) *IntervalSet {
	if len(ivs) == 0 {
		return empty(width)
	}
	if !sort.SliceIsSorted(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo }) {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
	}
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi || (last.Hi != ^uint64(0) && iv.Lo == last.Hi+1) {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return &IntervalSet{Width: width, ivs: out}
}

// intersect returns s ∩ o. Sets are immutable, so the result shares what it
// can: intersecting the full universe returns the other operand (the first
// table-guard assertion on a fresh symbol is O(1) instead of an O(entries)
// copy), and a result equal to s is s itself — the output is copied out only
// from the first interval where it departs from s, so an assertion that
// changes nothing allocates nothing.
func (s *IntervalSet) intersect(o *IntervalSet) *IntervalSet {
	if s.isFull() && !o.isFull() && !o.isEmpty() {
		return o
	}
	return s.intersectIntervals(o.ivs)
}

// intersectIntervals is intersect with the other operand given as canonical
// intervals over s's universe, so a caller can intersect with intervals it
// never wrapped in a set. Where intersect returns a full s's operand as is,
// intersectIntervals copies the intervals out.
func (s *IntervalSet) intersectIntervals(o []interval) *IntervalSet {
	switch {
	case s.isEmpty() || (len(o) == 1 && o[0].Lo == 0 && o[0].Hi == expr.Mask(s.Width)):
		return s
	case len(o) == 0:
		return empty(s.Width)
	}
	var out []interval // nil while the result is s.ivs[:n]
	n := 0
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o) {
		a, b := s.ivs[i], o[j]
		lo := max(a.Lo, b.Lo)
		hi := min(a.Hi, b.Hi)
		if lo <= hi {
			iv := interval{Lo: lo, Hi: hi}
			switch {
			case out != nil:
				out = append(out, iv)
			case iv != s.ivs[n]:
				out = append(make([]interval, 0, n+1), s.ivs[:n]...)
				out = append(out, iv)
			}
			n++
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	switch {
	case out != nil:
		return &IntervalSet{Width: s.Width, ivs: out}
	case n == len(s.ivs):
		return s
	}
	return &IntervalSet{Width: s.Width, ivs: s.ivs[:n:n]}
}

// complement returns the universe minus s.
func (s *IntervalSet) complement() *IntervalSet {
	m := expr.Mask(s.Width)
	if s.isEmpty() {
		return full(s.Width)
	}
	var out []interval
	var next uint64
	for _, iv := range s.ivs {
		if iv.Lo > next {
			out = append(out, interval{Lo: next, Hi: iv.Lo - 1})
		}
		if iv.Hi == m {
			return &IntervalSet{Width: s.Width, ivs: out}
		}
		next = iv.Hi + 1
	}
	out = append(out, interval{Lo: next, Hi: m})
	return &IntervalSet{Width: s.Width, ivs: out}
}

// Subtract returns s \ o.
func (s *IntervalSet) Subtract(o *IntervalSet) *IntervalSet {
	if o.isEmpty() || s.isEmpty() {
		return s
	}
	return s.intersect(o.complement())
}

// remove returns s \ {v}.
func (s *IntervalSet) remove(v uint64) *IntervalSet {
	if !s.Contains(v) {
		return s
	}
	return s.Subtract(Singleton(v, s.Width))
}

// shift returns {(x + k) mod 2^Width : x ∈ s}; wrapping intervals split.
func (s *IntervalSet) shift(k uint64) *IntervalSet {
	m := expr.Mask(s.Width)
	k &= m
	if k == 0 || s.isEmpty() {
		return s
	}
	out := make([]interval, 0, len(s.ivs)+1)
	for _, iv := range s.ivs {
		lo := (iv.Lo + k) & m
		hi := (iv.Hi + k) & m
		if lo <= hi {
			out = append(out, interval{Lo: lo, Hi: hi})
		} else { // wrapped
			out = append(out, interval{Lo: lo, Hi: m}, interval{Lo: 0, Hi: hi})
		}
	}
	return normalize(s.Width, out)
}

// subsetOf reports whether s ⊆ o.
func (s *IntervalSet) subsetOf(o *IntervalSet) bool {
	return s.Subtract(o).isEmpty()
}

func (s *IntervalSet) String() string {
	if s.isEmpty() {
		return "{}"
	}
	if s.isFull() {
		return fmt.Sprintf("{*:%d}", s.Width)
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range s.ivs {
		if i > 0 {
			b.WriteByte(',')
		}
		if iv.Lo == iv.Hi {
			fmt.Fprintf(&b, "%d", iv.Lo)
		} else {
			fmt.Fprintf(&b, "%d-%d", iv.Lo, iv.Hi)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// fromCmp returns the solution set {x : x op c} over a width-bit universe.
func fromCmp(op expr.CmpOp, c uint64, width int) *IntervalSet {
	lo, hi, out := cmpArc(op, c, width)
	return fromArc(lo, hi, 0, out, width)
}

// fromArc builds the set of the intervals arcIntervals returns.
func fromArc(lo, hi, k uint64, out bool, width int) *IntervalSet {
	var buf [2]interval
	return &IntervalSet{Width: width, ivs: append([]interval(nil), arcIntervals(&buf, lo, hi, k, out, width)...)}
}

// cmpArc returns the solutions of x op c over width bits as an arc of the
// value cycle: x ∈ [lo, hi], or x ∉ [lo, hi] when out is set, with
// lo <= hi <= Mask(width); no solution at all is out of the whole
// universe. fromCmp is the same set, built.
func cmpArc(op expr.CmpOp, c uint64, width int) (lo, hi uint64, out bool) {
	m := expr.Mask(width)
	if c > m {
		// Comparisons against out-of-universe constants degenerate.
		switch op {
		case expr.Lt, expr.Le, expr.Ne:
			return 0, m, false
		}
		return 0, m, true
	}
	switch op {
	case expr.Eq:
		return c, c, false
	case expr.Ne:
		return c, c, true
	case expr.Lt:
		if c == 0 {
			return 0, m, true
		}
		return 0, c - 1, false
	case expr.Le:
		return 0, c, false
	case expr.Gt:
		if c == m {
			return 0, m, true
		}
		return c + 1, m, false
	case expr.Ge:
		return c, m, false
	}
	panic("solver: unknown CmpOp")
}

// prefixArc returns the solutions of x & mask == val over width bits, the
// range [lo, hi]. The mask must be a prefix mask (its free bits one low run,
// or none), as every expr.Match's is; any other mask panics, naming it.
func prefixArc(mask, val uint64, width int) (lo, hi uint64) {
	m := expr.Mask(width)
	mask &= m
	val &= mask
	free := m &^ mask
	if free != lowContiguous(free) {
		panic(fmt.Sprintf("solver: match mask %#x is not a prefix mask of a %d-bit value", mask, width))
	}
	return val, val | free
}

// arcIntervals writes the canonical intervals of the arc [lo, hi] shifted by
// k around the width-bit value cycle — or of the rest of the cycle when out
// is set — into buf, and returns them: none, one interval, or two when the
// arc wraps past the top. The whole universe is the one arc no shift moves.
func arcIntervals(buf *[2]interval, lo, hi, k uint64, out bool, width int) []interval {
	m := expr.Mask(width)
	if lo == 0 && hi == m {
		if out {
			return buf[:0]
		}
		buf[0] = interval{Lo: 0, Hi: m}
		return buf[:1]
	}
	lo, hi = (lo+k)&m, (hi+k)&m
	if out {
		// The rest of the cycle after a proper arc is the arc between its
		// ends.
		lo, hi = (hi+1)&m, (lo-1)&m
	}
	if lo <= hi {
		buf[0] = interval{Lo: lo, Hi: hi}
		return buf[:1]
	}
	buf[0], buf[1] = interval{Lo: 0, Hi: hi}, interval{Lo: lo, Hi: m}
	return buf[:2]
}

// lowContiguous returns the maximal run of set bits of v starting at bit 0,
// or 0 if bit 0 is clear.
func lowContiguous(v uint64) uint64 {
	if v&1 == 0 {
		return 0
	}
	return v &^ (v + 1) & v // bits below the first clear bit
}
