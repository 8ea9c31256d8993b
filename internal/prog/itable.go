package prog

// Interval-table lowering of egress-style guards.
//
// The egress switch/router models of the paper re-assert, at every output
// port, a disjunction spanning the whole forwarding table: "EtherDst == MAC1
// | MAC2 | ...", "IPDst in P1 | (P2 & !more-specific) | ...", or the
// VLAN-aware "Or((vlan==V, mac==M)...)". The solver already compresses such
// an Or into one interval-set union per assertion, but it does that work —
// atom walk, set construction, k-way merge, structural hashing — on every
// path visit, and the serialized Or-tree dominates the distributed setup
// frame. Lowering detects the shape once at compile time and attaches the
// merged span table to the condition node, so each visit costs one field
// read plus one packed-set assertion (expr.InSet), and the wire carries
// packed ranges instead of a tree.
//
// Detection is deliberately conservative: every disjunct must be an
// equality/prefix constraint on one shared header field, optionally with
// prefix exclusions (the LPM compilation shape), or an equality pair over
// two shared header fields, with constant widths equal to the field's
// declared size. Anything else keeps the Or-tree, whose semantics are
// unchanged.
//
// The rows are the guard. The compiler reads them straight off the SEFL Or,
// before any disjunct is compiled, and everything a condition node carries —
// fingerprint, size, memo gating, inputs, the span table — is computed from
// them. The Or-tree they stand for is a derived view, not retained state:
// CCond.children builds it on first use for the readers that want the
// reference semantics — Env.OrTreeGuards, the fallback evaluation takes when
// the runtime value shapes are not the ones the table was compiled for, the
// IR dump — so lowering can never change observable behavior, and a program
// that stays on the table path never pays for it. The wire carries the rows
// alone.

import (
	"cmp"
	"slices"

	"symnet/internal/expr"
	"symnet/internal/sefl"
)

// --- Detection ---

// seflField accepts an expression as a table field: a direct read of a
// header l-value with a usable declared width.
func seflField(e sefl.Expr) (LV, bool) {
	r, _ := e.(sefl.Ref)
	h, ok := r.LV.(sefl.Hdr)
	return hdrLV(h), ok && h.Size >= 1 && h.Size <= 64
}

// itEqAtom matches Eq(field, constant of the field's declared width), so
// runtime width coercion can never fire on it.
func itEqAtom(c sefl.Cond) (LV, uint64, bool) {
	eq, _ := c.(sefl.Cmp)
	f, ok := seflField(eq.L)
	n, isNum := eq.R.(sefl.Num)
	return f, n.V, ok && isNum && eq.Op == expr.Eq && n.W == f.Size
}

// itPrefixAtom matches Prefix(field, V/Len) evaluated at the field's width.
func itPrefixAtom(c sefl.Cond) (LV, uint64, int, bool) {
	p, _ := c.(sefl.Prefix)
	f, ok := seflField(p.E)
	return f, p.Value, p.Len, ok && cmp.Or(p.Width, 32) == f.Size
}

// itHead matches an equality or prefix atom as the head of a row.
func itHead(c sefl.Cond) (ITRow, LV, bool) {
	if f, v, ok := itEqAtom(c); ok {
		return ITRow{Kind: ITEq, V: v}, f, true
	}
	f, v, plen, ok := itPrefixAtom(c)
	return ITRow{Kind: ITPrefix, V: v, Len: plen}, f, ok
}

// itParseRow classifies one disjunct, returning its row plus the field
// (and, for pair rows, second field) it constrains.
func itParseRow(c sefl.Cond) (ITRow, LV, LV, bool) {
	if row, f, ok := itHead(c); ok {
		return row, f, LV{}, true
	}
	and, _ := c.(sefl.CAnd)
	if len(and.Cs) < 2 {
		return ITRow{}, LV{}, LV{}, false
	}
	// Pair shape: exactly two equalities on two distinct fields.
	if len(and.Cs) == 2 {
		f1, v1, ok1 := itEqAtom(and.Cs[0])
		f2, v2, ok2 := itEqAtom(and.Cs[1])
		if ok1 && ok2 && f1 != f2 {
			return ITRow{Kind: ITPair, V: v1, V2: v2}, f1, f2, true
		}
	}
	// Exclusion shape: head atom followed by only prefix negations on the
	// same field.
	row, f, ok := itHead(and.Cs[0])
	row.Excl = make([]ITExcl, 0, len(and.Cs)-1)
	for _, sub := range and.Cs[1:] {
		not, _ := sub.(sefl.CNot)
		ef, v, plen, isPrefix := itPrefixAtom(not.C)
		ok = ok && isPrefix && ef == f
		row.Excl = append(row.Excl, ITExcl{V: v, Len: plen})
	}
	return row, f, LV{}, ok
}

// detectIntervalTable parses every disjunct of a SEFL Or, before any of
// them is compiled, and checks shape uniformity: all rows over one shared
// field, or all pair rows over one shared ordered field pair. It returns
// nil when the Or is not a table, or too small to be worth one
// (expr.TableSized: a single route with exclusions can be).
func detectIntervalTable(cs []sefl.Cond) *ITable {
	it := &ITable{Rows: make([]ITRow, 0, len(cs))}
	for i, c := range cs {
		row, f, f2, ok := itParseRow(c)
		if !ok {
			return nil
		}
		grouped := row.Kind == ITPair
		if i == 0 {
			it.F, it.W = f, f.Size
			it.Grouped = grouped
			if grouped {
				it.F2, it.W2 = f2, f2.Size
			}
		} else if grouped != it.Grouped || f != it.F || (grouped && f2 != it.F2) {
			return nil
		}
		it.Rows = append(it.Rows, row)
	}
	if !expr.TableSized(it.Rows) {
		return nil
	}
	return it
}

// --- Span tables ---

// appendRowSpans appends one row's solution set over a w-bit field — the
// head range minus its exclusions — as ascending disjoint spans: the set the
// solver's disjunction compression reaches by subtracting the exclusions
// from the head one at a time, so the merged table is exactly what a
// reference-mode assertion would have produced. Exclusions are prefix
// ranges, so ordered by address one sweep visits them, skips the ones an
// earlier one already covers and emits the gaps. scratch is reused between
// rows.
func appendRowSpans(dst []expr.Span, r *ITRow, w int, scratch *[]expr.Span) []expr.Span {
	m := expr.Mask(w)
	lo, hi := r.V&m, r.V&m
	if r.Kind == ITPrefix {
		mask := expr.PrefixMask(r.Len, w)
		lo, hi = r.V&mask, r.V&mask|m&^mask
	}
	ex := (*scratch)[:0]
	for _, e := range r.Excl {
		mask := expr.PrefixMask(e.Len, w)
		ex = append(ex, expr.Span{Lo: e.V & mask, Hi: e.V&mask | m&^mask})
	}
	*scratch = ex
	slices.SortFunc(ex, func(a, b expr.Span) int { return cmp.Compare(a.Lo, b.Lo) })
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

// buildITable computes the packed span tables from the rows: the merged
// single-field table, or the per-group tables of a grouped guard (groups
// sorted by key). It is shared by the compiler and the wire decoder, so a
// decoded table is identical to the coordinator's. Every row's spans go
// into one buffer that is normalised once.
func buildITable(it *ITable) {
	if !it.Grouped {
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
		return
	}
	m := expr.Mask(it.W)
	byKey := make(map[uint64][]expr.Span)
	var order []uint64
	for _, r := range it.Rows {
		k := r.V & m
		if _, seen := byKey[k]; !seen {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], expr.Span{Lo: r.V2 & expr.Mask(it.W2), Hi: r.V2 & expr.Mask(it.W2)})
	}
	groups := make([]ITGroup, 0, len(order))
	for _, k := range order {
		groups = append(groups, ITGroup{Key: k, Table: expr.NewSpanTable(it.W2, byKey[k])})
	}
	// Sorted by key for binary search (model order need not be sorted).
	slices.SortFunc(groups, func(a, b ITGroup) int { return cmp.Compare(a.Key, b.Key) })
	it.Groups = groups
}

// group returns the span table for one primary-field value, or nil.
func (it *ITable) group(key uint64) *ITGroup {
	lo, hi := 0, len(it.Groups)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch g := &it.Groups[mid]; {
		case key < g.Key:
			hi = mid - 1
		case key > g.Key:
			lo = mid + 1
		default:
			return g
		}
	}
	return nil
}

// --- What a condition node carries, from the rows ---

// A lowered node is fingerprinted, sized and memo-gated as the Or-tree its
// rows stand for (lowering is a representation change, so guards dedup and
// memoize identically in either form). fp, words and collectInputs compute
// that state with the tree's formulas, without the tree; TestRowsMatchTree
// pins the two equal.

// fp is fpCond of the Or-tree.
func (it *ITable) fp() expr.Fp {
	ref, ref2 := fpRef(it.F), fpRef(it.F2)
	f := fpJunction(COr, len(it.Rows))
	for i := range it.Rows {
		r := &it.Rows[i]
		var row expr.Fp
		switch r.Kind {
		case ITPair:
			row = fpJunction(CAnd, 2).
				Chain(fpCmp(expr.Eq, ref, fpNum(r.V, it.W))).
				Chain(fpCmp(expr.Eq, ref2, fpNum(r.V2, it.W2)))
		case ITEq:
			row = fpCmp(expr.Eq, ref, fpNum(r.V, it.W))
		case ITPrefix:
			row = fpPrefix(ref, r.V, r.Len, it.W)
		}
		if len(r.Excl) > 0 {
			row = fpJunction(CAnd, len(r.Excl)+1).Chain(row)
			for _, e := range r.Excl {
				row = row.Chain(fpNot(fpPrefix(ref, e.V, e.Len, it.W)))
			}
		}
		f = f.Chain(row)
	}
	return f
}

// words is condSize of the Or-tree: an equality is three nodes (comparison,
// reference, literal), a prefix two, a negated prefix three, and every And
// and the Or itself one more.
func (it *ITable) words() int {
	n := 1
	for i := range it.Rows {
		n += [...]int{ITEq: 3, ITPrefix: 2, ITPair: 1 + 3 + 3}[it.Rows[i].Kind]
		if k := len(it.Rows[i].Excl); k > 0 {
			n += 1 + 3*k
		}
	}
	return n
}

// --- The Or-tree view ---

// children returns the operands of an And or an Or, in either form an Or
// can take: a lowered guard builds the Or-tree its rows stand for on first
// use. Programs are shared across workers, hence the Once.
func (c *CCond) children() []*CCond {
	it := c.IT
	if it == nil {
		return c.Cs
	}
	it.viewOnce.Do(func() {
		b := &itBuilder{conds: make(map[expr.Fp][]*CCond)}
		it.view = b.children(it)
	})
	return it.view
}

// itBuilder rebuilds the original Or-tree disjuncts of a lowered guard from
// its rows, hash-consing within the builder exactly as the compiler does for
// an Or it cannot lower, so the view is byte-identical (fingerprints, flags,
// sharing) to compiler-built children.
type itBuilder struct {
	conds map[expr.Fp][]*CCond
}

func (b *itBuilder) seal(cc *CCond) *CCond {
	cc.FP = fpCond(cc)
	if cand := findCond(b.conds, cc); cand != nil {
		return cand
	}
	finishCond(cc)
	b.conds[cc.FP] = append(b.conds[cc.FP], cc)
	return cc
}

// itRef mirrors compileExpr for a header-field reference.
func itRef(lv LV) *CExpr { return &CExpr{Kind: ERef, LV: lv} }

// itNum mirrors compileExpr for a fixed-width literal.
func itNum(v uint64, w int) *CExpr {
	ce := &CExpr{Kind: ENum, V: v, W: w}
	l := expr.Const(v, w)
	ce.Folded = &l
	return ce
}

func (b *itBuilder) eq(f LV, v uint64) *CCond {
	return b.seal(&CCond{Kind: CCmp, Op: expr.Eq, L: itRef(f), R: itNum(v, f.Size)})
}

func (b *itBuilder) prefix(f LV, v uint64, plen int) *CCond {
	return b.seal(&CCond{Kind: CPrefix, L: itRef(f), Val: v, PLen: plen, PW: f.Size})
}

// children rebuilds the disjunct list of a lowered guard.
func (b *itBuilder) children(it *ITable) []*CCond {
	cs := make([]*CCond, 0, len(it.Rows))
	for _, r := range it.Rows {
		var head *CCond
		switch r.Kind {
		case ITPair:
			cs = append(cs, b.seal(&CCond{Kind: CAnd, Cs: []*CCond{b.eq(it.F, r.V), b.eq(it.F2, r.V2)}}))
			continue
		case ITEq:
			head = b.eq(it.F, r.V)
		case ITPrefix:
			head = b.prefix(it.F, r.V, r.Len)
		}
		if len(r.Excl) == 0 {
			cs = append(cs, head)
			continue
		}
		sub := make([]*CCond, 0, len(r.Excl)+1)
		sub = append(sub, head)
		for _, e := range r.Excl {
			sub = append(sub, b.seal(&CCond{Kind: CNot, C: b.prefix(it.F, e.V, e.Len)}))
		}
		cs = append(cs, b.seal(&CCond{Kind: CAnd, Cs: sub}))
	}
	return cs
}
