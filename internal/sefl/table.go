package sefl

// Table guards. The egress switch and router models constrain every output
// port on "the field matches one of this port's entries": EtherDst is one of
// the port's MACs, IPDst lies in one of its routes but in none of the
// more-specific routes that win over it. Table is that condition as the
// models hold it, one row per entry, instead of the Or-tree it stands for.
// The compiler lowers every well-formed table to a span table
// (internal/prog), or adopts the one a router's table carries (Spans), the
// SEFL codec ships the rows as a flat word stream, and the AST interpreter,
// the one reader that wants the tree, builds it with Or. Rows use the
// packed-guard vocabulary of internal/expr (expr.GuardRow,
// expr.PackGuardRows).
import (
	"fmt"
	"strconv"

	"symnet/internal/expr"
)

// Table is the condition "F matches one of Rows": a row is an equality
// (F == V) or a prefix (F in V/Len), minus its prefix exclusions. It means
// exactly the Or-tree Or returns and renders as that tree does.
type Table struct {
	F    Hdr
	Rows []expr.GuardRow
	// Spans, when not nil, is the rows' merged span table over F — exactly
	// the canonical table the compiler would merge from them — which the
	// compiler then adopts instead. It is derived: tables.LPMRows's output
	// sets it, as does the churn service on a guard whose span table it
	// compared; the wire never carries it (a decoded table has none), and
	// Or, String and Check ignore it.
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

// String renders the table byte for byte as its Or-tree renders, without
// building the tree.
func (t Table) String() string {
	name := t.F.String()
	if len(t.Rows) == 1 && len(t.Rows[0].Excl) == 0 {
		return string(appendAtom(nil, name, t.Rows[0].Kind, t.Rows[0].V, t.Rows[0].Len))
	}
	b := []byte{'('}
	for i, r := range t.Rows {
		if i > 0 {
			b = append(b, " | "...)
		}
		if len(r.Excl) == 0 {
			b = appendAtom(b, name, r.Kind, r.V, r.Len)
			continue
		}
		b = appendAtom(append(b, '('), name, r.Kind, r.V, r.Len)
		for _, e := range r.Excl {
			b = append(appendAtom(append(b, " & !("...), name, expr.GuardPrefix, e.V, e.Len), ')')
		}
		b = append(b, ')')
	}
	return string(append(b, ')'))
}

// appendAtom renders one head or exclusion atom on the field called name as
// Cmp, Prefix or CBool do.
func appendAtom(b []byte, name string, kind uint8, v uint64, plen int) []byte {
	switch kind {
	case expr.GuardEq:
		b = append(append(b, name...), " == "...)
		return strconv.AppendUint(b, v, 10)
	case expr.GuardPrefix:
		b = append(append(b, name...), " in "...)
		b = append(strconv.AppendUint(b, v, 10), '/')
		return strconv.AppendInt(b, int64(plen), 10)
	}
	return append(b, "false"...)
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
