package prog

// Interval-table lowering of table guards.
//
// The egress switch/router models of the paper re-assert, at every output
// port, a guard spanning the whole forwarding table: "EtherDst == MAC1 |
// MAC2 | ..." or "IPDst in P1 | (P2 & !more-specific) | ...". The models
// write it as a sefl.Table, one row per entry, and the compiler lowers a
// well-formed table worth one (expr.TableSized) to a cIntervalTable node
// holding those rows plus their merged span table, so each visit costs one
// field read plus one packed-set assertion (expr.InSet) instead of an
// Or-tree the solver compresses to the same set on every visit. A router's
// table arrives with its span table already built (sefl.Table.Spans, from
// tables.LPMRows's sweep), which the node adopts; buildITable merges one
// from the rows for every other table — a switch's, a hand-written one, one
// a fleet member decoded from the wire (the wire carries rows, never spans).
// A hand-written Or stays an Or-tree: nothing parses trees back into rows.
//
// The rows and the span table are the whole node: evaluation reads the span
// table, the IR dump prints both, and the node's fingerprint is its field
// and the span table's. The Or-tree the rows stand for (Table.Or) is the
// reference semantics the AST interpreter and the differential suites
// evaluate; the compiled program never builds it.

import (
	"slices"

	"symnet/internal/expr"
)

// --- Span tables ---

// appendRowSpans appends one row's solution set over a w-bit field — the
// head range minus its exclusions — as ascending disjoint spans: the set the
// solver's disjunction compression reaches by subtracting the exclusions
// from the head one at a time, so the merged table is exactly what a
// reference-mode assertion would have produced. Exclusions are prefix
// ranges, so ordered by address one sweep visits them, skips the ones an
// earlier one already covers and emits the gaps. They come in CompileLPM
// order, a few ascending runs, which expr.SortSpans merges through dst's
// free capacity; scratch is reused between rows.
func appendRowSpans(dst []expr.Span, r *itRow, w int, scratch *[]expr.Span) []expr.Span {
	m := expr.Mask(w)
	lo, hi := r.V&m, r.V&m
	if r.Kind == itPrefix {
		mask := expr.PrefixMask(r.Len, w)
		lo, hi = r.V&mask, r.V&mask|m&^mask
	}
	ex := (*scratch)[:0]
	for _, e := range r.Excl {
		mask := expr.PrefixMask(e.Len, w)
		ex = append(ex, expr.Span{Lo: e.V & mask, Hi: e.V&mask | m&^mask})
	}
	*scratch = ex
	// The row emits at most one span per exclusion plus one, so dst's free
	// capacity holds them. Should the sorted exclusions land there, the sweep
	// still reads each one before an append can reach it: it has appended at
	// most one span per exclusion read.
	dst = slices.Grow(dst, len(ex)+1)
	ex = expr.SortSpans(ex, dst[len(dst):len(dst)+len(ex)])
	for _, e := range ex {
		if e.Hi < lo {
			continue
		}
		if e.Lo > hi {
			break
		}
		if e.Lo > lo {
			dst = append(dst, expr.Span{Lo: lo, Hi: e.Lo - 1})
		}
		if e.Hi >= hi {
			return dst
		}
		lo = e.Hi + 1
	}
	return append(dst, expr.Span{Lo: lo, Hi: hi})
}

// buildITable merges the span table of rows over a w-bit field, for the
// tables that come without one: any table tables.LPMRows did not write, and
// a router's on a fleet member, whose result must equal the table the
// coordinator adopted (TestLPMSpansMatchBuildITable). Every row's spans go
// into one buffer that is normalised once, and that buffer is NewSpanTable's
// scratch. No comparator sorts it: the rows come in table order, and each
// row's spans ascend, so rows whose heads ascend — a router's of one prefix
// length, in CompileLPM order, or a switch's sorted MACs — make one ascending
// run, and expr.SortSpans merges the few runs there are (at most 33 for a
// router's port, one for a switch's).
func buildITable(rows []itRow, w int) *expr.SpanTable {
	total, deepest := len(rows), 0
	for i := range rows {
		total += len(rows[i].Excl)
		deepest = max(deepest, len(rows[i].Excl))
	}
	spans := make([]expr.Span, 0, total)
	scratch := make([]expr.Span, 0, deepest)
	for i := range rows {
		spans = appendRowSpans(spans, &rows[i], w, &scratch)
	}
	return expr.NewSpanTable(w, spans)
}

// GuardTables returns the payload of every lowered guard node in the
// program, deduplicated, in op order. Tests read it to compare a port's
// compiled guard with a fresh build of its rows.
func GuardTables(p *Program) []*ITable {
	var out []*ITable
	seen := make(map[*cCond]bool)
	var walk func(cc *cCond)
	walk = func(cc *cCond) {
		if cc == nil || seen[cc] {
			return
		}
		seen[cc] = true
		if cc.Kind == cIntervalTable && cc.IT != nil {
			out = append(out, cc.IT)
		}
		for _, sub := range cc.Cs {
			walk(sub)
		}
		walk(cc.C)
	}
	for i := range p.Ops {
		walk(p.Ops[i].C)
	}
	return out
}
