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
// The rows are the guard. Everything a condition node carries — its
// fingerprint, its fresh-symbol flag, the span table — is computed from
// them. The Or-tree they stand for is a derived view, not retained state:
// cCond.children builds it on first use for the readers that want the
// reference semantics — the fallback evaluation takes when the runtime value
// shapes are not the ones the table was compiled for, the IR dump — so
// lowering can never change observable behavior, and a program that stays on
// the table path never pays for it.

import (
	"slices"

	"symnet/internal/expr"
	"symnet/internal/sefl"
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

// buildITable computes the merged span table from the rows, for the tables
// that come without one: any table tables.LPMRows did not write, and a
// router's on a fleet member, whose result must equal the table the
// coordinator adopted (TestLPMSpansMatchBuildITable). Every row's spans go into one buffer that
// is normalised once, and that buffer is NewSpanTable's scratch. No
// comparator sorts it: the rows come in table order, and each row's spans
// ascend, so rows whose heads ascend — a router's of one prefix length, in
// CompileLPM order, or a switch's sorted MACs — make one ascending run, and
// expr.SortSpans merges the few runs there are (at most 33 for a router's
// port, one for a switch's).
func buildITable(it *ITable) {
	total, deepest := len(it.Rows), 0
	for i := range it.Rows {
		total += len(it.Rows[i].Excl)
		deepest = max(deepest, len(it.Rows[i].Excl))
	}
	spans := make([]expr.Span, 0, total)
	scratch := make([]expr.Span, 0, deepest)
	for i := range it.Rows {
		spans = appendRowSpans(spans, &it.Rows[i], it.W, &scratch)
	}
	it.Table = expr.NewSpanTable(it.W, spans)
}

// lowerTable returns the payload a table guard lowers to: its rows, which
// the node aliases, and the span table they came with (a router's) or else
// the one buildITable merges. It is nil for a table that stays an Or-tree:
// malformed, or too small to be worth a span table (expr.TableSized).
// Compile and PatchGuard both lower through it, so a patched node is a
// fresh compile's.
func lowerTable(v sefl.Table) *ITable {
	if v.Check() != nil || !expr.TableSized(v.Rows) {
		return nil
	}
	it := &ITable{F: hdrLV(v.F), W: v.F.Size, Rows: v.Rows, Table: v.Spans}
	if it.Table == nil {
		buildITable(it)
	}
	return it
}

// --- What a condition node carries, from the rows ---

// A lowered node is fingerprinted as the Or-tree its rows stand for
// (lowering is a representation change, so guards dedup identically in
// either form). fp computes that fingerprint with the tree's formulas,
// without the tree; TestRowsMatchTree pins the two equal.

// fp is fpCond of the Or-tree.
func (it *ITable) fp() expr.Fp {
	ref := fpRef(it.F)
	f := fpJunction(cOr, len(it.Rows))
	for i := range it.Rows {
		r := &it.Rows[i]
		var row expr.Fp
		switch r.Kind {
		case itEq:
			row = fpCmp(expr.Eq, ref, fpNum(r.V, it.W))
		case itPrefix:
			row = fpPrefix(ref, r.V, r.Len, it.W)
		}
		if len(r.Excl) > 0 {
			row = fpJunction(cAnd, len(r.Excl)+1).Chain(row)
			for _, e := range r.Excl {
				row = row.Chain(fpNot(fpPrefix(ref, e.V, e.Len, it.W)))
			}
		}
		f = f.Chain(row)
	}
	return f
}

// --- The Or-tree view ---

// children returns the operands of an And or an Or, in either form an Or
// can take: a lowered guard builds the Or-tree its rows stand for on first
// use. Programs are shared across workers, hence the Once.
func (c *cCond) children() []*cCond {
	it := c.IT
	if it == nil {
		return c.Cs
	}
	it.viewOnce.Do(func() {
		b := &itBuilder{conds: make(map[expr.Fp][]*cCond)}
		it.view = b.children(it)
	})
	return it.view
}

// itBuilder rebuilds the original Or-tree disjuncts of a lowered guard from
// its rows, hash-consing within the builder exactly as the compiler does for
// an Or it cannot lower, so the view is byte-identical (fingerprints, flags,
// sharing) to compiler-built children.
type itBuilder struct {
	conds map[expr.Fp][]*cCond
}

func (b *itBuilder) seal(cc *cCond) *cCond {
	cc.FP = fpCond(cc)
	if cand := findCond(b.conds, cc); cand != nil {
		return cand
	}
	finishCond(cc)
	b.conds[cc.FP] = append(b.conds[cc.FP], cc)
	return cc
}

// itRef mirrors compileExpr for a header-field reference.
func itRef(lv LV) *CExpr { return &CExpr{Kind: eRef, LV: lv} }

// itNum mirrors compileExpr for a fixed-width literal.
func itNum(v uint64, w int) *CExpr {
	ce := &CExpr{Kind: eNum, V: v, W: w}
	l := expr.Const(v, w)
	ce.Folded = &l
	return ce
}

func (b *itBuilder) eq(f LV, v uint64) *cCond {
	return b.seal(&cCond{Kind: cCmp, Op: expr.Eq, L: itRef(f), R: itNum(v, f.Size)})
}

func (b *itBuilder) prefix(f LV, v uint64, plen int) *cCond {
	return b.seal(&cCond{Kind: cPrefix, L: itRef(f), Val: v, PLen: plen, PW: f.Size})
}

// children rebuilds the disjunct list of a lowered guard.
func (b *itBuilder) children(it *ITable) []*cCond {
	cs := make([]*cCond, 0, len(it.Rows))
	for _, r := range it.Rows {
		var head *cCond
		switch r.Kind {
		case itEq:
			head = b.eq(it.F, r.V)
		case itPrefix:
			head = b.prefix(it.F, r.V, r.Len)
		}
		if len(r.Excl) == 0 {
			cs = append(cs, head)
			continue
		}
		sub := make([]*cCond, 0, len(r.Excl)+1)
		sub = append(sub, head)
		for _, e := range r.Excl {
			sub = append(sub, b.seal(&cCond{Kind: cNot, C: b.prefix(it.F, e.V, e.Len)}))
		}
		cs = append(cs, b.seal(&cCond{Kind: cAnd, Cs: sub}))
	}
	return cs
}
