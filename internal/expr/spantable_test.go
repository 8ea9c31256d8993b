package expr

import (
	"reflect"
	"testing"
)

func spansEqual(a, b []Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tablesEqual reports canonical-form equality of two span tables.
func tablesEqual(a, b *SpanTable) bool {
	return a.Width() == b.Width() && spansEqual(a.Spans(), b.Spans())
}

// TestSpanTableCanonicalization: overlapping and adjacent input ranges merge,
// out-of-universe parts clip, inverted ranges drop, order normalizes.
func TestSpanTableCanonicalization(t *testing.T) {
	cases := []struct {
		name  string
		width int
		in    []Span
		want  []Span
	}{
		{"empty", 16, nil, nil},
		{"single", 16, []Span{{Lo: 5, Hi: 9}}, []Span{{Lo: 5, Hi: 9}}},
		{"adjacent merge", 16, []Span{{Lo: 0, Hi: 4}, {Lo: 5, Hi: 9}}, []Span{{Lo: 0, Hi: 9}}},
		{"overlap merge", 16, []Span{{Lo: 0, Hi: 6}, {Lo: 4, Hi: 9}}, []Span{{Lo: 0, Hi: 9}}},
		{"unsorted", 16, []Span{{Lo: 20, Hi: 30}, {Lo: 1, Hi: 2}}, []Span{{Lo: 1, Hi: 2}, {Lo: 20, Hi: 30}}},
		{"duplicate singleton", 16, []Span{{Lo: 7, Hi: 7}, {Lo: 7, Hi: 7}}, []Span{{Lo: 7, Hi: 7}}},
		{"disjoint kept", 8, []Span{{Lo: 1, Hi: 2}, {Lo: 4, Hi: 5}}, []Span{{Lo: 1, Hi: 2}, {Lo: 4, Hi: 5}}},
		{"clip hi", 8, []Span{{Lo: 250, Hi: 300}}, []Span{{Lo: 250, Hi: 255}}},
		{"drop out of universe", 8, []Span{{Lo: 300, Hi: 400}}, nil},
		{"drop inverted", 8, []Span{{Lo: 9, Hi: 3}}, nil},
		{"full 64-bit no wrap", 64, []Span{{Lo: 0, Hi: ^uint64(0)}, {Lo: 5, Hi: 6}}, []Span{{Lo: 0, Hi: ^uint64(0)}}},
	}
	for _, tc := range cases {
		got := NewSpanTable(tc.width, tc.in)
		if !spansEqual(got.Spans(), tc.want) {
			t.Errorf("%s: spans = %v, want %v", tc.name, got.Spans(), tc.want)
		}
	}
}

// TestSpanTableContains probes the exact boundaries of each span.
func TestSpanTableContains(t *testing.T) {
	tab := NewSpanTable(16, []Span{{Lo: 10, Hi: 20}, {Lo: 30, Hi: 30}, {Lo: 40, Hi: 50}})
	for _, v := range []uint64{10, 15, 20, 30, 40, 50} {
		if !tab.Contains(v) {
			t.Errorf("Contains(%d) = false, want true", v)
		}
	}
	for _, v := range []uint64{0, 9, 21, 29, 31, 39, 51, 65535} {
		if tab.Contains(v) {
			t.Errorf("Contains(%d) = true, want false", v)
		}
	}
	if Empty := NewSpanTable(16, nil); Empty.Contains(0) {
		t.Error("empty table contains 0")
	}
}

// TestSpanTableFingerprint: equal canonical forms share a fingerprint even
// when built from different raw inputs; different tables differ.
func TestSpanTableFingerprint(t *testing.T) {
	a := NewSpanTable(16, []Span{{Lo: 0, Hi: 4}, {Lo: 5, Hi: 9}})
	b := NewSpanTable(16, []Span{{Lo: 0, Hi: 9}})
	if a.fp != b.fp || !tablesEqual(a, b) {
		t.Error("equal canonical tables must share a fingerprint")
	}
	c := NewSpanTable(16, []Span{{Lo: 0, Hi: 10}})
	if a.fp == c.fp || tablesEqual(a, c) {
		t.Error("different tables must not share a fingerprint")
	}
	d := NewSpanTable(32, []Span{{Lo: 0, Hi: 9}})
	if a.fp == d.fp {
		t.Error("width must be part of the fingerprint")
	}
}

// TestNewInSetFolding: concrete terms fold to Bool, empty tables to false,
// symbolic terms build the packed condition.
func TestNewInSetFolding(t *testing.T) {
	tab := NewSpanTable(16, []Span{{Lo: 10, Hi: 20}})
	if got := NewInSet(Const(15, 16), tab); got != Bool(true) {
		t.Errorf("concrete member = %v, want true", got)
	}
	if got := NewInSet(Const(9, 16), tab); got != Bool(false) {
		t.Errorf("concrete non-member = %v, want false", got)
	}
	if got := NewInSet(Lin{Sym: 3, Width: 16}, NewSpanTable(16, nil)); got != Bool(false) {
		t.Errorf("empty table = %v, want false", got)
	}
	sym := NewInSet(Lin{Sym: 3, Add: 7, Width: 16}, tab)
	is, ok := sym.(InSet)
	if !ok || is.L.Sym != 3 || is.T != tab {
		t.Fatalf("symbolic InSet = %#v", sym)
	}
	defer func() {
		if recover() == nil {
			t.Error("width mismatch must panic")
		}
	}()
	NewInSet(Lin{Sym: 1, Width: 32}, tab)
}

// TestInSetHashEqualIntern: the InSet fingerprint is O(1) via the table's
// cached fingerprint and stable across structurally equal instances.
func TestInSetHashEqualIntern(t *testing.T) {
	t1 := NewSpanTable(48, []Span{{Lo: 1, Hi: 1}, {Lo: 9, Hi: 12}})
	t2 := NewSpanTable(48, []Span{{Lo: 9, Hi: 12}, {Lo: 1, Hi: 1}})
	a := InSet{L: Lin{Sym: 5, Width: 48}, T: t1}
	b := InSet{L: Lin{Sym: 5, Width: 48}, T: t2}
	if HashCond(a) != HashCond(b) || !reflect.DeepEqual(a, b) {
		t.Error("equal InSets must hash and compare equal")
	}
	c := InSet{L: Lin{Sym: 6, Width: 48}, T: t1}
	if HashCond(a) == HashCond(c) {
		t.Error("different terms must hash differently")
	}
}
