package expr

import (
	"math/rand"
	"testing"
)

// spansOf materializes a table's membership over a small universe for
// oracle comparisons.
func spansOf(t *SpanTable, max uint64) map[uint64]bool {
	out := make(map[uint64]bool)
	for v := uint64(0); v <= max; v++ {
		if t.Contains(v) {
			out[v] = true
		}
	}
	return out
}

// requireCanonEqual checks got is canonically and fingerprint-identical to a
// table rebuilt from scratch with the same membership.
func requireCanonEqual(t *testing.T, got, want *SpanTable) {
	t.Helper()
	if !tablesEqual(got, want) {
		t.Fatalf("canonical mismatch: got %v want %v", got, want)
	}
	if got.Fp() != want.Fp() {
		t.Fatalf("fingerprint mismatch after patch: got %v want %v (tables %v vs %v)", got.Fp(), want.Fp(), got, want)
	}
}

func TestPatchWindowInsertAtBoundaries(t *testing.T) {
	base := NewSpanTable(16, []Span{{Lo: 10, Hi: 20}, {Lo: 40, Hi: 50}})

	// Insert immediately below an existing span: must merge into it.
	got := base.PatchWindow(9, 9, []Span{{Lo: 9, Hi: 9}})
	requireCanonEqual(t, got, NewSpanTable(16, []Span{{Lo: 9, Hi: 20}, {Lo: 40, Hi: 50}}))
	if len(got.Spans()) != 2 {
		t.Fatalf("adjacent insert did not re-merge: %v", got)
	}

	// Insert immediately above: same.
	got = base.PatchWindow(21, 21, []Span{{Lo: 21, Hi: 21}})
	requireCanonEqual(t, got, NewSpanTable(16, []Span{{Lo: 10, Hi: 21}, {Lo: 40, Hi: 50}}))

	// Insert bridging two spans (the window replaces the gap).
	got = base.PatchWindow(21, 39, []Span{{Lo: 21, Hi: 39}})
	requireCanonEqual(t, got, NewSpanTable(16, []Span{{Lo: 10, Hi: 50}}))
	if len(got.Spans()) != 1 {
		t.Fatalf("bridging insert did not merge to one span: %v", got)
	}

	// Insert already-present value: no-op, identical table and fingerprint.
	got = base.PatchWindow(15, 15, []Span{{Lo: 15, Hi: 15}})
	requireCanonEqual(t, got, base)
}

func TestPatchWindowDeleteSplitsSpan(t *testing.T) {
	base := NewSpanTable(16, []Span{{Lo: 10, Hi: 20}})

	got := base.PatchWindow(15, 15, nil)
	requireCanonEqual(t, got, NewSpanTable(16, []Span{{Lo: 10, Hi: 14}, {Lo: 16, Hi: 20}}))
	if len(got.Spans()) != 2 {
		t.Fatalf("mid-span delete did not split: %v", got)
	}

	// Delete at the edges narrows instead of splitting.
	got = base.PatchWindow(10, 10, nil)
	requireCanonEqual(t, got, NewSpanTable(16, []Span{{Lo: 11, Hi: 20}}))
	got = base.PatchWindow(20, 20, nil)
	requireCanonEqual(t, got, NewSpanTable(16, []Span{{Lo: 10, Hi: 19}}))

	// Delete a window spanning several spans, keeping the outside parts.
	multi := NewSpanTable(16, []Span{{Lo: 0, Hi: 5}, {Lo: 8, Hi: 12}, {Lo: 14, Hi: 30}})
	got = multi.PatchWindow(4, 16, nil)
	requireCanonEqual(t, got, NewSpanTable(16, []Span{{Lo: 0, Hi: 3}, {Lo: 17, Hi: 30}}))

	// Delete of an absent value: no-op.
	got = base.PatchWindow(99, 99, nil)
	requireCanonEqual(t, got, base)
}

func TestPatchWindowToEmptyAndFromEmpty(t *testing.T) {
	base := NewSpanTable(8, []Span{{Lo: 3, Hi: 7}, {Lo: 100, Hi: 120}})

	got := base.PatchWindow(0, 255, nil)
	if len(got.Spans()) != 0 {
		t.Fatalf("patch-to-empty left spans: %v", got)
	}
	requireCanonEqual(t, got, NewSpanTable(8, nil))

	// Patching contents back into an empty table.
	refilled := got.PatchWindow(40, 60, []Span{{Lo: 41, Hi: 45}, {Lo: 50, Hi: 50}})
	requireCanonEqual(t, refilled, NewSpanTable(8, []Span{{Lo: 41, Hi: 45}, {Lo: 50, Hi: 50}}))
}

func TestPatchWindowClipsToUniverseAndWindow(t *testing.T) {
	base := NewSpanTable(8, []Span{{Lo: 10, Hi: 20}})

	// Replacement spans sticking out of the window are clipped to it.
	got := base.PatchWindow(30, 40, []Span{{Lo: 25, Hi: 35}, {Lo: 38, Hi: 60}})
	requireCanonEqual(t, got, NewSpanTable(8, []Span{{Lo: 10, Hi: 20}, {Lo: 30, Hi: 35}, {Lo: 38, Hi: 40}}))

	// A window beyond the universe is a no-op; one straddling it is clipped.
	if base.PatchWindow(300, 400, []Span{{Lo: 300, Hi: 400}}) != base {
		t.Fatal("out-of-universe window should return the receiver")
	}
	got = base.PatchWindow(250, 1000, []Span{{Lo: 250, Hi: 1000}})
	requireCanonEqual(t, got, NewSpanTable(8, []Span{{Lo: 10, Hi: 20}, {Lo: 250, Hi: 255}}))

	// Inverted window: no-op.
	if base.PatchWindow(40, 30, nil) != base {
		t.Fatal("inverted window should return the receiver")
	}
}

func TestPatchWindowImmutableReceiver(t *testing.T) {
	base := NewSpanTable(16, []Span{{Lo: 10, Hi: 20}, {Lo: 40, Hi: 50}})
	before := base.String()
	fpBefore := base.Fp()
	_ = base.PatchWindow(0, 100, []Span{{Lo: 1, Hi: 2}})
	_ = base.PatchWindow(15, 15, nil)
	if base.String() != before || base.Fp() != fpBefore {
		t.Fatalf("receiver mutated by patch: %v (fp %v)", base, base.Fp())
	}
}

// TestPatchWindowFingerprintStability is the patch-then-rebuild property at
// random: any sequence of window patches must leave the table canonically
// and fingerprint-identical to NewSpanTable over the resulting membership.
func TestPatchWindowFingerprintStability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const width = 9 // 512-value universe keeps the oracle cheap
	max := Mask(width)
	cur := NewSpanTable(width, []Span{{Lo: 17, Hi: 93}, {Lo: 200, Hi: 230}, {Lo: 400, Hi: 400}})
	member := spansOf(cur, max)
	for step := 0; step < 500; step++ {
		lo := rng.Uint64() & max
		hi := lo + rng.Uint64()%32
		var repl []Span
		for k := rng.Intn(3); k > 0; k-- {
			a := lo + rng.Uint64()%33
			b := a + rng.Uint64()%8
			repl = append(repl, Span{Lo: a, Hi: b})
		}
		cur = cur.PatchWindow(lo, hi, repl)

		// Update the oracle membership map.
		for v := lo; v <= hi && v <= max; v++ {
			delete(member, v)
		}
		for _, s := range repl {
			for v := s.Lo; v <= s.Hi; v++ {
				if v >= lo && v <= hi && v <= max {
					member[v] = true
				}
			}
		}
		var spans []Span
		for v := uint64(0); v <= max; v++ {
			if member[v] {
				spans = append(spans, Span{Lo: v, Hi: v})
			}
		}
		rebuilt := NewSpanTable(width, spans)
		if !tablesEqual(cur, rebuilt) || cur.Fp() != rebuilt.Fp() {
			t.Fatalf("step %d: patch diverged from rebuild: %v vs %v", step, cur, rebuilt)
		}
	}
}
