package prog

// Interval-table lowering of table guards.
//
// The egress switch/router models of the paper re-assert, at every output
// port, a guard spanning the whole forwarding table: "EtherDst == MAC1 |
// MAC2 | ..." or "IPDst in P1 | (P2 & !more-specific) | ...". The models
// write it as a sefl.Table, one row per entry, and the compiler lowers every
// well-formed table, whatever its size, to a cIntervalTable node holding the
// field and the rows' merged span table, so each visit costs one field read
// plus one packed-set assertion (expr.InSet) instead of an Or-tree the
// solver compresses to the same set on every visit. A router's table
// arrives with its span table already built (sefl.Table.Spans, from
// tables.LPMRows's sweep), which the node adopts; buildITable merges one
// from the rows for every other table — a switch's, a hand-written one, one
// a fleet member decoded from the wire (the wire carries rows, never spans).
// A malformed table compiles to a static error. A hand-written Or stays an
// Or-tree: nothing parses trees back into rows.
//
// The field and the span table are the whole node: evaluation reads the
// span table, and the IR dump and a refuted guard's failure message
// (UnsatMsg) print it. The Or-tree the rows stand for (Table.Or) is the
// reference semantics the AST interpreter and the differential suites
// evaluate; the compiled program never builds it.

import (
	"fmt"

	"symnet/internal/expr"
	"symnet/internal/sefl"
)

// TableSpans returns the span table of the well-formed table t: the one it
// carries (a router's) or else the one buildITable merges from its rows.
// Two tables on one field with equal span tables admit the same values,
// however their rows spell them.
func TableSpans(t sefl.Table) *expr.SpanTable {
	if t.Spans != nil {
		return t.Spans
	}
	return buildITable(t.Rows, t.F.Size)
}

// UnsatMsg is the failure message of a Constrain on c that the path's
// context refutes, in both executors. A table guard renders as its field and
// its span table (TableSpans), which is the value set the guard means:
// tables with equal span tables fail with one message, and SpanTable.String
// bounds its length. Any other condition renders as written. A malformed
// table never gets here: it fails with Table.Check's error.
func UnsatMsg(c sefl.Cond) string {
	if t, ok := c.(sefl.Table); ok {
		return fmt.Sprintf("constraint unsatisfiable: %s in %s", t.F, TableSpans(t))
	}
	return fmt.Sprintf("constraint unsatisfiable: %s", c)
}

// --- Span tables ---

// appendRowSpans appends one row's solution set over a w-bit field — the
// head range minus its exclusions — as ascending disjoint spans: the set the
// solver's disjunction compression reaches by subtracting the exclusions
// from the head one at a time, so the merged table is exactly what a
// reference-mode assertion would have produced. Exclusions are prefix
// ranges, so ordered by address one sweep visits them, skips the ones an
// earlier one already covers and emits the gaps. They come in CompileLPM
// order and are sorted in scratch, which is reused between rows.
func appendRowSpans(dst []expr.Span, r *expr.GuardRow, w int, scratch *[]expr.Span) []expr.Span {
	m := expr.Mask(w)
	lo, hi := r.V&m, r.V&m
	if r.Kind == expr.GuardPrefix {
		mask := expr.PrefixMask(r.Len, w)
		lo, hi = r.V&mask, r.V&mask|m&^mask
	}
	ex := (*scratch)[:0]
	for _, e := range r.Excl {
		mask := expr.PrefixMask(e.Len, w)
		ex = append(ex, expr.Span{Lo: e.V & mask, Hi: e.V&mask | m&^mask})
	}
	*scratch = ex
	expr.SortSpans(ex)
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
// scratch.
func buildITable(rows []expr.GuardRow, w int) *expr.SpanTable {
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
// program, in op order: one per occurrence, since no two ops share a node.
// Tests read it to compare a port's compiled guard with a fresh build of its
// rows.
func GuardTables(p *Program) []*ITable {
	var out []*ITable
	var walk func(cc *cCond)
	walk = func(cc *cCond) {
		if cc == nil {
			return
		}
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
