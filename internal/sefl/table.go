package sefl

// Table guards. The egress switch and router models constrain every output
// port on "the field matches one of this port's entries": EtherDst is one of
// the port's MACs, IPDst lies in one of its routes but in none of the
// more-specific routes that win over it. Table is that condition as the
// models hold it, one row per entry, instead of the Or-tree it stands for.
// A table has one value set, its span table (SpanTable: the one a router's
// table carries, or the rows merged), and one rendering, that span table:
// the compiler lowers every well-formed table to it (internal/prog), and a
// trace line and a refuted guard's failure message print it. The SEFL codec
// ships the rows as a flat word stream, and the AST interpreter, the one
// reader that wants the tree, builds it with Or. Rows use the packed-guard
// vocabulary of internal/expr (expr.GuardRow, expr.PackGuardRows).
import (
	"fmt"

	"symnet/internal/expr"
)

// Table is the condition "F matches one of Rows": a row is an equality
// (F == V) or a prefix (F in V/Len), minus its prefix exclusions. It means
// exactly the Or-tree Or returns, and renders as its span table.
type Table struct {
	F    Hdr
	Rows []expr.GuardRow
	// Spans, when not nil, is the rows' merged span table over F — exactly
	// the canonical table SpanTable would merge from them — which SpanTable
	// then returns instead. It is derived: tables.LPMRows's output sets it,
	// as does the churn service on a guard whose span table it compared;
	// the wire never carries it (a decoded table has none), and Or and
	// Check ignore it.
	Spans *expr.SpanTable
}

func (Table) isCond() {}

// prefixWidth is the Width of the tree's Prefix atoms: the field's, left at
// zero (the 32-bit default) for a 32-bit field, as the router model has
// always written it.
func (t Table) prefixWidth() int {
	if t.F.Size == 32 {
		return 0
	}
	return t.F.Size
}

// Or returns the Or-tree the table stands for: per row its head atom, or
// "head & !excl..." when it has exclusions (the conjunctions are slices of
// one array). A lone row without exclusions is returned bare. A row of
// unknown kind matches nothing. The AST interpreter evaluates this tree once
// Check passes; the compiler never builds it.
func (t Table) Or() Cond {
	ref := Ref{LV: t.F}
	prefix := func(v uint64, plen int) Cond {
		return Prefix{E: ref, Value: v, Len: plen, Width: t.prefixWidth()}
	}
	terms := 0
	for i := range t.Rows {
		if k := len(t.Rows[i].Excl); k > 0 {
			terms += k + 1
		}
	}
	all := make([]Cond, 0, terms)
	cs := make([]Cond, len(t.Rows))
	for i, r := range t.Rows {
		head := Cond(CBool(false))
		switch r.Kind {
		case expr.GuardEq:
			head = Cmp{Op: expr.Eq, L: ref, R: Num{V: r.V, W: t.F.Size}}
		case expr.GuardPrefix:
			head = prefix(r.V, r.Len)
		}
		if len(r.Excl) > 0 {
			from := len(all)
			all = append(all, head)
			for _, e := range r.Excl {
				all = append(all, CNot{C: prefix(e.V, e.Len)})
			}
			head = CAnd{Cs: all[from:len(all):len(all)]}
		}
		cs[i] = head
	}
	if len(cs) == 1 && len(t.Rows[0].Excl) == 0 {
		return cs[0]
	}
	return COr{Cs: cs}
}

// String renders the table as "F in <span table>": the value set it
// admits, which SpanTable.String bounds in length however many rows spell
// it, so tables with equal span tables render alike. A malformed table has
// no span table and renders as its field and Check's error.
func (t Table) String() string {
	if t.Spans == nil {
		if err := t.Check(); err != nil {
			return fmt.Sprintf("%s in malformed(%v)", t.F, err)
		}
	}
	return fmt.Sprintf("%s in %s", t.F, t.SpanTable())
}

// SpanTable returns the span table of the well-formed table t: the one it
// carries (a router's) or else the one its rows merge to. Two tables on one
// field with equal span tables admit the same values, however their rows
// spell them. The compiler lowers a table to it, a refuted guard's failure
// message and a trace line print it, and the churn service compares it.
func (t Table) SpanTable() *expr.SpanTable {
	if t.Spans != nil {
		return t.Spans
	}
	rows, w := t.Rows, t.F.Size
	total, deepest := len(rows), 0
	for i := range rows {
		total += len(rows[i].Excl)
		deepest = max(deepest, len(rows[i].Excl))
	}
	// Every row's spans go into one buffer that is normalised once, and
	// that buffer is NewSpanTable's scratch.
	spans := make([]expr.Span, 0, total)
	scratch := make([]expr.Span, 0, deepest)
	for i := range rows {
		spans = appendRowSpans(spans, &rows[i], w, &scratch)
	}
	return expr.NewSpanTable(w, spans)
}

// appendRowSpans appends one row's solution set over a w-bit field — the
// head range minus its exclusions — as ascending disjoint spans: the set the
// solver's disjunction compression reaches by subtracting the exclusions
// from the head one at a time, so the merged table is exactly what the
// Or-tree's assertion would have produced. Exclusions are prefix ranges, so
// ordered by address one sweep visits them, skips the ones an earlier one
// already covers and emits the gaps. They come in CompileLPM order and are
// sorted in scratch, which is reused between rows.
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

// Check reports whether the table is well formed, which is what the compiler
// needs to lower it to a span table and what the wire decoder demands of a
// shipped one: the field is 1 to 64 bits wide, every row is an equality or a
// prefix, and no prefix or exclusion length lies outside [0, width]. The
// error names the first offending row; both executors fail a path on a
// malformed table with it.
func (t Table) Check() error {
	w := t.F.Size
	if w < 1 || w > 64 {
		return fmt.Errorf("sefl: table field %s is %d bits wide, want 1 to 64", t.F, w)
	}
	for i, r := range t.Rows {
		switch {
		case r.Kind != expr.GuardEq && r.Kind != expr.GuardPrefix:
			return fmt.Errorf("sefl: table row %d: unknown kind %d", i, r.Kind)
		case r.Kind == expr.GuardPrefix && (r.Len < 0 || r.Len > w):
			return fmt.Errorf("sefl: table row %d: prefix length %d outside the %d-bit field", i, r.Len, w)
		}
		for j, e := range r.Excl {
			if e.Len < 0 || e.Len > w {
				return fmt.Errorf("sefl: table row %d: exclusion %d length %d outside the %d-bit field", i, j, e.Len, w)
			}
		}
	}
	return nil
}

// encodeTable ships the field and the rows as they are.
func encodeTable(t Table) (*WireCond, error) {
	f, err := encodeExpr(Ref{LV: t.F})
	if err != nil {
		return nil, err
	}
	return &WireCond{Kind: wCTable, L: f, Rows: expr.PackGuardRows(t.Rows)}, nil
}

// decodeTable rebuilds a shipped table, refusing a malformed one: the
// compiler trusts a table's rows.
func decodeTable(w *WireCond) (Cond, error) {
	e, err := decodeExpr(w.L)
	if err != nil {
		return nil, err
	}
	ref, _ := e.(Ref)
	f, ok := ref.LV.(Hdr)
	if !ok {
		return nil, fmt.Errorf("sefl: table field %v is not a header", e)
	}
	rows, err := expr.UnpackGuardRows(w.Rows)
	if err != nil {
		return nil, fmt.Errorf("sefl: table: %w", err)
	}
	t := Table{F: f, Rows: rows}
	if err := t.Check(); err != nil {
		return nil, err
	}
	return t, nil
}
