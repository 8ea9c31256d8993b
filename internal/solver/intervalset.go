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
	"math/bits"
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
	merged := make([]Interval, 0, total)
	for _, s := range sets {
		merged = append(merged, s.ivs...)
	}
	return normalize(width, merged)
}

// Interval is an inclusive range [Lo, Hi] of uint64 values. It is an alias
// of expr.Span so packed guard tables (expr.SpanTable) convert to
// IntervalSets without copying — see FromSpanTable.
type Interval = expr.Span

// IntervalSet is a sorted list of disjoint, non-adjacent inclusive intervals
// within the universe [0, 2^Width-1]. The zero value is the empty set with
// width 0; use Full/Empty/FromRange constructors. IntervalSets are immutable:
// all operations return new sets.
type IntervalSet struct {
	Width int
	ivs   []Interval
}

// Empty returns the empty set over a width-bit universe.
func Empty(width int) *IntervalSet { return &IntervalSet{Width: width} }

// Full returns the complete width-bit universe.
func Full(width int) *IntervalSet {
	return &IntervalSet{Width: width, ivs: []Interval{{Lo: 0, Hi: expr.Mask(width)}}}
}

// Singleton returns the one-element set {v}.
func Singleton(v uint64, width int) *IntervalSet {
	v &= expr.Mask(width)
	return &IntervalSet{Width: width, ivs: []Interval{{Lo: v, Hi: v}}}
}

// FromSpanTable wraps a packed guard table as an IntervalSet without
// copying: SpanTable's canonical form (sorted, disjoint, non-adjacent,
// clipped) is exactly this package's interval invariant, and both sides are
// immutable, so the span slice is shared directly. This is what makes
// asserting a compiled interval-table guard O(1) in the table size up to
// the final domain intersection.
func FromSpanTable(t *expr.SpanTable) *IntervalSet {
	return &IntervalSet{Width: t.Width(), ivs: t.Spans()}
}

// FromRange returns [lo, hi] clipped to the universe; an empty set when
// lo > hi.
func FromRange(lo, hi uint64, width int) *IntervalSet {
	m := expr.Mask(width)
	if lo > m {
		return Empty(width)
	}
	if hi > m {
		hi = m
	}
	if lo > hi {
		return Empty(width)
	}
	return &IntervalSet{Width: width, ivs: []Interval{{Lo: lo, Hi: hi}}}
}

// IsEmpty reports whether the set has no elements.
func (s *IntervalSet) IsEmpty() bool { return len(s.ivs) == 0 }

// IsFull reports whether the set is the whole universe.
func (s *IntervalSet) IsFull() bool {
	return len(s.ivs) == 1 && s.ivs[0].Lo == 0 && s.ivs[0].Hi == expr.Mask(s.Width)
}

// Intervals returns the underlying intervals (shared; do not mutate).
func (s *IntervalSet) Intervals() []Interval { return s.ivs }

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
func normalize(width int, ivs []Interval) *IntervalSet {
	if len(ivs) == 0 {
		return Empty(width)
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

// Union returns s ∪ o.
func (s *IntervalSet) Union(o *IntervalSet) *IntervalSet {
	if s.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return s
	}
	// Merge two sorted interval lists.
	merged := make([]Interval, 0, len(s.ivs)+len(o.ivs))
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		if s.ivs[i].Lo <= o.ivs[j].Lo {
			merged = append(merged, s.ivs[i])
			i++
		} else {
			merged = append(merged, o.ivs[j])
			j++
		}
	}
	merged = append(merged, s.ivs[i:]...)
	merged = append(merged, o.ivs[j:]...)
	return normalize(s.Width, merged)
}

// Intersect returns s ∩ o. Sets are immutable, so the result shares what it
// can: intersecting the full universe returns the other operand (the first
// table-guard assertion on a fresh symbol is O(1) instead of an O(entries)
// copy), and a result equal to s is s itself — the output is copied out only
// from the first interval where it departs from s, so an assertion that
// changes nothing allocates nothing.
func (s *IntervalSet) Intersect(o *IntervalSet) *IntervalSet {
	switch {
	case s.IsEmpty() || o.IsFull():
		return s
	case o.IsEmpty():
		return Empty(s.Width)
	case s.IsFull():
		return o
	}
	var out []Interval // nil while the result is s.ivs[:n]
	n := 0
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		a, b := s.ivs[i], o.ivs[j]
		lo := max(a.Lo, b.Lo)
		hi := min(a.Hi, b.Hi)
		if lo <= hi {
			iv := Interval{Lo: lo, Hi: hi}
			switch {
			case out != nil:
				out = append(out, iv)
			case iv != s.ivs[n]:
				out = append(make([]Interval, 0, n+1), s.ivs[:n]...)
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

// Complement returns the universe minus s.
func (s *IntervalSet) Complement() *IntervalSet {
	m := expr.Mask(s.Width)
	if s.IsEmpty() {
		return Full(s.Width)
	}
	var out []Interval
	var next uint64
	for _, iv := range s.ivs {
		if iv.Lo > next {
			out = append(out, Interval{Lo: next, Hi: iv.Lo - 1})
		}
		if iv.Hi == m {
			return &IntervalSet{Width: s.Width, ivs: out}
		}
		next = iv.Hi + 1
	}
	out = append(out, Interval{Lo: next, Hi: m})
	return &IntervalSet{Width: s.Width, ivs: out}
}

// Subtract returns s \ o.
func (s *IntervalSet) Subtract(o *IntervalSet) *IntervalSet {
	if o.IsEmpty() || s.IsEmpty() {
		return s
	}
	return s.Intersect(o.Complement())
}

// Remove returns s \ {v}.
func (s *IntervalSet) Remove(v uint64) *IntervalSet {
	if !s.Contains(v) {
		return s
	}
	return s.Subtract(Singleton(v, s.Width))
}

// Shift returns {(x + k) mod 2^Width : x ∈ s}; wrapping intervals split.
func (s *IntervalSet) Shift(k uint64) *IntervalSet {
	m := expr.Mask(s.Width)
	k &= m
	if k == 0 || s.IsEmpty() {
		return s
	}
	out := make([]Interval, 0, len(s.ivs)+1)
	for _, iv := range s.ivs {
		lo := (iv.Lo + k) & m
		hi := (iv.Hi + k) & m
		if lo <= hi {
			out = append(out, Interval{Lo: lo, Hi: hi})
		} else { // wrapped
			out = append(out, Interval{Lo: lo, Hi: m}, Interval{Lo: 0, Hi: hi})
		}
	}
	return normalize(s.Width, out)
}

// SubsetOf reports whether s ⊆ o.
func (s *IntervalSet) SubsetOf(o *IntervalSet) bool {
	return s.Subtract(o).IsEmpty()
}

// Equal reports set equality.
func (s *IntervalSet) Equal(o *IntervalSet) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

func (s *IntervalSet) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	if s.IsFull() {
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

// FromCmp returns the solution set {x : x op c} over a width-bit universe.
func FromCmp(op expr.CmpOp, c uint64, width int) *IntervalSet {
	m := expr.Mask(width)
	if c > m {
		// Comparisons against out-of-universe constants degenerate.
		switch op {
		case expr.Lt, expr.Le, expr.Ne:
			return Full(width)
		default:
			return Empty(width)
		}
	}
	switch op {
	case expr.Eq:
		return Singleton(c, width)
	case expr.Ne:
		return Singleton(c, width).Complement()
	case expr.Lt:
		if c == 0 {
			return Empty(width)
		}
		return FromRange(0, c-1, width)
	case expr.Le:
		return FromRange(0, c, width)
	case expr.Gt:
		if c == m {
			return Empty(width)
		}
		return FromRange(c+1, m, width)
	case expr.Ge:
		return FromRange(c, m, width)
	}
	panic("solver: unknown CmpOp")
}

// FromMask returns the solution set {x : x & mask == val} over width bits.
// Prefix (top-contiguous) masks yield a single interval; general masks are
// expanded by enumerating the free bits above the lowest free run, which is
// exact but exponential in that bit count — callers should prefer prefix
// masks (the paper's models only need them).
func FromMask(mask, val uint64, width int) *IntervalSet {
	m := expr.Mask(width)
	mask &= m
	val &= mask
	if mask == 0 {
		return Full(width)
	}
	free := m &^ mask
	if free == 0 {
		return Singleton(val, width)
	}
	// Prefix mask: free bits are one low contiguous run.
	lowRun := lowContiguous(free)
	if free == lowRun {
		return FromRange(val, val|free, width)
	}
	// General mask: enumerate combinations of free bits above the low run.
	highFree := free &^ lowRun
	n := bits.OnesCount64(highFree)
	if n > expr.MaxMatchFreeBits {
		// The evaluators refuse such matches (expr.CheckMatch).
		panic(fmt.Sprintf("solver: mask %#x too sparse to expand (%d free high bits)", mask, n))
	}
	// Collect the positions of high free bits.
	var pos []uint
	for b := highFree; b != 0; b &= b - 1 {
		pos = append(pos, uint(bits.TrailingZeros64(b)))
	}
	total := 1 << uint(n)
	out := make([]Interval, 0, total)
	for i := 0; i < total; i++ {
		v := val
		for j, p := range pos {
			if i&(1<<uint(j)) != 0 {
				v |= 1 << p
			}
		}
		out = append(out, Interval{Lo: v, Hi: v | lowRun})
	}
	return normalize(width, out)
}

// lowContiguous returns the maximal run of set bits of v starting at bit 0,
// or 0 if bit 0 is clear.
func lowContiguous(v uint64) uint64 {
	if v&1 == 0 {
		return 0
	}
	return v &^ (v + 1) & v // bits below the first clear bit
}
