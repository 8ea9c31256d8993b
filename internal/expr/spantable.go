package expr

// Packed interval tables. Egress-style network models re-assert a guard
// spanning an entire forwarding table at every output port: a disjunction of
// equality/prefix constraints over one header field. Tree-shaped Or
// conditions make every assertion O(table size) — the solver walks the tree,
// hashes it, and rebuilds its solution set per path visit — and make the
// distributed wire frame O(table size) in allocated nodes. A SpanTable is
// the compiled form of such a guard: the disjuncts' solution sets merged
// once into sorted, disjoint inclusive ranges, with the structural
// fingerprint precomputed, so membership is a binary search and assertion is
// a single domain intersection (cf. the sorted range tables of header-space
// analysis, which the SymNet paper compares against).

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Span is an inclusive value range [Lo, Hi]. The solver's IntervalSet is
// built over the same layout, so packed tables convert to solver domains
// without copying.
type Span struct {
	Lo, Hi uint64
}

// SpanTable is a canonical set of spans over a width-bit universe: sorted by
// Lo, pairwise disjoint and non-adjacent, every value ≤ Mask(width). Tables
// are immutable after construction and safe for concurrent use; they are
// built once per compiled guard and shared by every path that asserts it.
type SpanTable struct {
	width int
	spans []Span
	fp    Fp
}

// NewSpanTable canonicalizes spans (clip to the universe, sort, merge
// overlapping and adjacent ranges) and precomputes the table fingerprint.
// The input is used as scratch: its contents are undefined after the call,
// and it is not retained.
func NewSpanTable(width int, spans []Span) *SpanTable {
	m := Mask(width)
	n := 0
	for _, s := range spans {
		if s.Lo > m || s.Lo > s.Hi {
			continue
		}
		spans[n] = Span{Lo: s.Lo, Hi: min(s.Hi, m)}
		n++
	}
	ivs := make([]Span, n)
	copy(ivs, spans)
	SortSpans(ivs)
	return canonSorted(width, ivs)
}

// NewSortedSpanTable is NewSpanTable for spans already clipped to the
// universe and sorted by Lo, as an ascending sweep emits them: it skips the
// clip and the sort, so the table and its fingerprint are NewSpanTable's of
// the same spans. The table keeps spans, merged in place, as its own.
func NewSortedSpanTable(width int, spans []Span) *SpanTable {
	return canonSorted(width, spans)
}

// SortSpans sorts a by Lo in place. The order of spans with equal Lo is
// unspecified; canonSorted's result does not depend on it.
func SortSpans(a []Span) {
	slices.SortFunc(a, func(x, y Span) int { return cmp.Compare(x.Lo, y.Lo) })
}

// canonSorted finishes table construction from spans already clipped to the
// universe and sorted by Lo: merge overlapping and adjacent neighbors in one
// linear pass, then fingerprint. It is the shared tail of NewSpanTable and
// NewSortedSpanTable, which is what guarantees a table swept in order (a
// router's) is canonically — and fingerprint- — identical to one merged from
// its rows. The input slice is consumed (merged in place).
func canonSorted(width int, ivs []Span) *SpanTable {
	out := ivs[:0]
	for _, iv := range ivs {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if iv.Lo <= last.Hi || (last.Hi != ^uint64(0) && iv.Lo == last.Hi+1) {
				if iv.Hi > last.Hi {
					last.Hi = iv.Hi
				}
				continue
			}
		}
		out = append(out, iv)
	}
	t := &SpanTable{width: width, spans: out}
	s := fpState{hi: 0xcbf29ce484222325, lo: 0x84222325cbf29ce4}
	s.word(uint64(width))
	for _, iv := range out {
		s.word(iv.Lo)
		s.word(iv.Hi)
	}
	t.fp = Fp{Hi: fmix64(s.hi), Lo: fmix64(s.lo)}
	return t
}

// Width returns the bit width of the table's universe.
func (t *SpanTable) Width() int { return t.width }

// Spans returns the canonical spans (shared; do not mutate).
func (t *SpanTable) Spans() []Span { return t.spans }

// Equal reports whether t and u are the same value set over the same
// universe. Tables are canonical, so equal sets have equal spans; the
// fingerprints compare first.
func (t *SpanTable) Equal(u *SpanTable) bool {
	return t.width == u.width && t.fp == u.fp && slices.Equal(t.spans, u.spans)
}

// Contains reports membership of v by binary search.
func (t *SpanTable) Contains(v uint64) bool {
	lo, hi := 0, len(t.spans)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		iv := t.spans[mid]
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

func (t *SpanTable) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range t.spans {
		if i == 4 && len(t.spans) > 5 {
			fmt.Fprintf(&b, ",… %d spans", len(t.spans))
			break
		}
		if i > 0 {
			b.WriteByte(',')
		}
		if iv.Lo == iv.Hi {
			fmt.Fprintf(&b, "%d", iv.Lo)
		} else {
			fmt.Fprintf(&b, "%d-%d", iv.Lo, iv.Hi)
		}
	}
	fmt.Fprintf(&b, "}:w%d", t.width)
	return b.String()
}

// InSet is the packed-membership condition: the term L lies in the table T.
// It is the interval-table counterpart of an Or over equality/prefix atoms
// on one field; the solver consumes it with a single domain intersection
// instead of an atom-by-atom walk. Invariant: L.Width == T.Width()
// (NewInSet enforces it; hand-built values must too).
type InSet struct {
	L Lin
	T *SpanTable
}

func (InSet) isCond() {}

func (s InSet) String() string { return fmt.Sprintf("%s in %s", s.L, s.T) }

// NewInSet builds a membership condition, folding concrete terms to Bool and
// empty tables to false. It panics on a width mismatch: tables are compiled
// against a declared field width, and evaluation must check the value width
// before constructing the condition.
func NewInSet(l Lin, t *SpanTable) Cond {
	if l.Width != t.width {
		panic(fmt.Sprintf("expr: InSet width mismatch: %d-bit term vs %d-bit table", l.Width, t.width))
	}
	if v, ok := l.ConstVal(); ok {
		return Bool(t.Contains(v))
	}
	if len(t.spans) == 0 {
		return Bool(false)
	}
	return InSet{L: l, T: t}
}
