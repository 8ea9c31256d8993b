package expr

// Packed guard rows: the shared vocabulary of table guards. A sefl.Table
// holds its rows as GuardRows, the compiled CIntervalTable node
// (internal/prog) aliases them, and the SEFL codec ships them as a flat word
// stream; keeping the grammar here means it is bounds-checked where the rows
// are defined. Stream grammar, per row:
//
//	GuardEq without exclusions:     0 V
//	GuardPrefix without exclusions: 1 V Len
//	GuardEq with exclusions:        2 V K (V Len)*K
//	GuardPrefix with exclusions:    3 V Len K (V Len)*K

import "fmt"

// GuardRow kinds.
const (
	// GuardEq is Eq(field, V).
	GuardEq uint8 = iota
	// GuardPrefix is Prefix(field, V/Len).
	GuardPrefix
)

// GuardRow is one disjunct of a table-shaped guard. Excl lists the prefix
// exclusions of an And-shaped disjunct (longest-prefix-match compilation
// emits "prefix & !more-specific..." rows).
type GuardRow struct {
	Kind uint8
	V    uint64
	Len  int // GuardPrefix length
	Excl []GuardExcl
}

// GuardExcl is one prefix exclusion of a row.
type GuardExcl struct {
	V   uint64
	Len int
}

// TableSized reports whether a guard with these rows is worth a table: the
// gate the compiler applies before lowering one to a span table. It counts
// atoms — rows plus exclusions — not rows: a lone default route excluding
// hundreds of more-specifics is as table-wide as hundreds of routes, while
// below four atoms the tree form is just as small and as cheap to assert.
func TableSized(rows []GuardRow) bool {
	atoms := len(rows)
	for i := range rows {
		atoms += len(rows[i].Excl)
	}
	return atoms >= 4
}

// stream word tags.
const (
	packEq uint64 = iota
	packPrefix
	packEqExcl
	packPrefixExcl
)

// PackGuardRows flattens rows to the wire stream.
func PackGuardRows(rows []GuardRow) []uint64 {
	var out []uint64
	for _, r := range rows {
		switch {
		case r.Kind == GuardEq && len(r.Excl) == 0:
			out = append(out, packEq, r.V)
		case r.Kind == GuardEq:
			out = append(out, packEqExcl, r.V, uint64(len(r.Excl)))
			for _, e := range r.Excl {
				out = append(out, e.V, uint64(int64(e.Len)))
			}
		case len(r.Excl) == 0:
			out = append(out, packPrefix, r.V, uint64(int64(r.Len)))
		default:
			out = append(out, packPrefixExcl, r.V, uint64(int64(r.Len)), uint64(len(r.Excl)))
			for _, e := range r.Excl {
				out = append(out, e.V, uint64(int64(e.Len)))
			}
		}
	}
	return out
}

// UnpackGuardRows parses a wire stream back to rows, erroring on truncated
// or malformed input.
func UnpackGuardRows(words []uint64) ([]GuardRow, error) {
	var rows []GuardRow
	i := 0
	next := func() (uint64, error) {
		if i >= len(words) {
			return 0, fmt.Errorf("expr: truncated guard-row stream at word %d", i)
		}
		v := words[i]
		i++
		return v, nil
	}
	readExcl := func() ([]GuardExcl, error) {
		k, err := next()
		if err != nil {
			return nil, err
		}
		if k > uint64(len(words)) {
			return nil, fmt.Errorf("expr: guard-row exclusion count %d exceeds stream", k)
		}
		excl := make([]GuardExcl, 0, k)
		for n := uint64(0); n < k; n++ {
			v, err := next()
			if err != nil {
				return nil, err
			}
			l, err := next()
			if err != nil {
				return nil, err
			}
			excl = append(excl, GuardExcl{V: v, Len: int(int64(l))})
		}
		return excl, nil
	}
	for i < len(words) {
		tag, _ := next()
		switch tag {
		case packEq, packEqExcl:
			v, err := next()
			if err != nil {
				return nil, err
			}
			row := GuardRow{Kind: GuardEq, V: v}
			if tag == packEqExcl {
				if row.Excl, err = readExcl(); err != nil {
					return nil, err
				}
			}
			rows = append(rows, row)
		case packPrefix, packPrefixExcl:
			v, err := next()
			if err != nil {
				return nil, err
			}
			l, err := next()
			if err != nil {
				return nil, err
			}
			row := GuardRow{Kind: GuardPrefix, V: v, Len: int(int64(l))}
			if tag == packPrefixExcl {
				if row.Excl, err = readExcl(); err != nil {
					return nil, err
				}
			}
			rows = append(rows, row)
		default:
			return nil, fmt.Errorf("expr: unknown guard-row tag %d", tag)
		}
	}
	return rows, nil
}
