package expr

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// newSpanTableBySort is NewSpanTable written out as its reference: clip into
// a fresh slice, a stable comparator sort by Lo, then canonSorted. The table
// must agree with it span for span and in fingerprint, whatever the order of
// equal Lo the sort leaves.
func newSpanTableBySort(width int, spans []Span) *SpanTable {
	m := Mask(width)
	ivs := make([]Span, 0, len(spans))
	for _, s := range spans {
		if s.Lo > m || s.Lo > s.Hi {
			continue
		}
		if s.Hi > m {
			s.Hi = m
		}
		ivs = append(ivs, s)
	}
	slices.SortStableFunc(ivs, func(a, b Span) int { return cmp.Compare(a.Lo, b.Lo) })
	return canonSorted(width, ivs)
}

// checkAgainstSort builds a table from in both ways and compares them, then
// overwrites the input and checks the table did not notice.
func checkAgainstSort(t *testing.T, name string, width int, in []Span) {
	t.Helper()
	want := newSpanTableBySort(width, in)
	got := NewSpanTable(width, slices.Clone(in))
	if !spansEqual(got.Spans(), want.Spans()) || got.fp != want.fp || got.Width() != width {
		t.Fatalf("%s (width %d, %d spans): got %v, want %v", name, width, len(in), got.Spans(), want.Spans())
	}
	scratch := slices.Clone(in)
	kept := NewSpanTable(width, scratch)
	spans, fp := slices.Clone(kept.Spans()), kept.fp
	for i := range scratch {
		scratch[i] = Span{Lo: 1, Hi: 0}
	}
	if !spansEqual(kept.Spans(), spans) || kept.fp != fp {
		t.Fatalf("%s (width %d): the table changed with its input", name, width)
	}
}

// interleave deals sorted spans round-robin into k lists and concatenates
// them: k ascending runs, the shape of a router port's rows in CompileLPM
// order (one run per prefix length).
func interleave(sorted []Span, k int) []Span {
	out := make([]Span, 0, len(sorted))
	for r := range k {
		for i := r; i < len(sorted); i += k {
			out = append(out, sorted[i])
		}
	}
	return out
}

func TestNewSpanTableMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, width := range []int{1, 8, 32, 64} {
		m := Mask(width)
		top := Span{Lo: m - 3, Hi: m} // Hi = 2⁶⁴−1 at width 64
		fixed := map[string][]Span{
			"empty":           nil,
			"one span":        {{Lo: 0, Hi: 0}},
			"equal Lo":        {{Lo: 1, Hi: 1}, {Lo: 1, Hi: m}, {Lo: 1, Hi: 0}, {Lo: 0, Hi: 0}, {Lo: 1, Hi: 1}},
			"overlapping":     {{Lo: 0, Hi: m / 2}, {Lo: m / 4, Hi: m}, {Lo: 0, Hi: 0}},
			"adjacent":        {{Lo: m/2 + 1, Hi: m}, {Lo: 0, Hi: m / 2}},
			"beyond universe": {{Lo: m, Hi: ^uint64(0)}, {Lo: 0, Hi: ^uint64(0)}, {Lo: m / 2, Hi: m / 2}},
			"Lo > Hi":         {{Lo: 1, Hi: 0}, {Lo: m, Hi: m - 1}, {Lo: 0, Hi: 0}},
			"top of universe": {top, {Lo: 0, Hi: 1}, top, {Lo: m, Hi: m}},
		}
		for name, in := range fixed {
			checkAgainstSort(t, name, width, in)
		}
		for trial := 0; trial < 40; trial++ {
			n := rng.Intn(300)
			spans := make([]Span, n)
			for i := range spans {
				lo := rng.Uint64() & (m>>uint(rng.Intn(width+1)) | 1)
				hi := lo + rng.Uint64()&(m>>uint(rng.Intn(width+1)))
				if rng.Intn(8) == 0 {
					lo, hi = hi, lo // Lo > Hi, or wrapped past 2⁶⁴−1
				}
				if rng.Intn(16) == 0 {
					lo |= m + 1 // beyond a narrow universe
				}
				spans[i] = Span{Lo: lo, Hi: hi}
			}
			checkAgainstSort(t, "random order", width, spans)
			sorted := slices.Clone(spans)
			slices.SortStableFunc(sorted, func(a, b Span) int { return cmp.Compare(a.Lo, b.Lo) })
			for _, k := range []int{1, 2, 33} {
				checkAgainstSort(t, "interleaved runs", width, interleave(sorted, k))
			}
			slices.Reverse(sorted)
			checkAgainstSort(t, "descending", width, sorted)
		}
	}
}

// FuzzNewSpanTable: arbitrary bytes as a width and a span list; the table
// must agree with the reference and must not keep its input. The first
// byte picks the width, each 16 further bytes a span; values are cut to one
// bit past the universe, so most land near it.
func FuzzNewSpanTable(f *testing.F) {
	span := func(lo, hi uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, lo), hi)
	}
	for _, seed := range [][]byte{
		{},
		{7},
		append([]byte{7}, slices.Concat(span(9, 12), span(1, 1), span(3, 200), span(0, 0))...),
		append([]byte{31}, slices.Concat(span(1<<31, 1<<32), span(5, 4), span(6, 6), span(7, 7))...),
		append([]byte{63}, slices.Concat(span(^uint64(0), ^uint64(0)), span(0, ^uint64(0)-1), span(1, 2))...),
		append([]byte{0}, slices.Concat(span(1, 1), span(0, 0), span(2, 3), span(1, 0))...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkAgainstSort(t, "fuzz", 1, nil)
			return
		}
		width := 1 + int(data[0])%64
		cut := Mask(width+1) | Mask(width)
		var spans []Span
		for rest := data[1:]; len(rest) >= 16; rest = rest[16:] {
			spans = append(spans, Span{
				Lo: binary.LittleEndian.Uint64(rest) & cut,
				Hi: binary.LittleEndian.Uint64(rest[8:]) & cut,
			})
		}
		checkAgainstSort(t, "fuzz", width, spans)
	})
}
