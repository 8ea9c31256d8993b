package sefl

// Packed wire form for table-shaped Or conditions. The detector mirrors the
// interval-table lowering in internal/prog, but operates on the SEFL AST and
// must be exactly invertible: decode rebuilds the original COr tree
// node-for-node (including header display names and zero-value prefix
// widths), so serialization stays a structural inverse. Rows use the shared
// packed-guard grammar of internal/expr (expr.GuardRow /
// expr.PackGuardRows), the same stream the IR codec ships.
import (
	"fmt"

	"symnet/internal/expr"
)

// packField accepts an expression as a shared table field: a reference to a
// header l-value.
func packField(e Expr) (Hdr, bool) {
	r, ok := e.(Ref)
	if !ok {
		return Hdr{}, false
	}
	h, ok := r.LV.(Hdr)
	return h, ok
}

// orPacker parses a disjunct list into packed rows: the shared field, the
// shared widths and the rows. have* distinguish "no constraint of this kind
// yet" from a zero-valued shared width.
type orPacker struct {
	f               Hdr
	haveF           bool
	eqW, pw         int
	haveEqW, havePW bool
	rows            []expr.GuardRow
}

func (p *orPacker) field(h Hdr) bool {
	if !p.haveF {
		p.f, p.haveF = h, true
		return true
	}
	return h == p.f
}

func (p *orPacker) eqAtom(c Cond) (Hdr, uint64, int, bool) {
	cmp, ok := c.(Cmp)
	if !ok || cmp.Op != expr.Eq {
		return Hdr{}, 0, 0, false
	}
	h, ok := packField(cmp.L)
	if !ok {
		return Hdr{}, 0, 0, false
	}
	n, ok := cmp.R.(Num)
	if !ok || n.W == 0 {
		return Hdr{}, 0, 0, false
	}
	return h, n.V, n.W, true
}

func (p *orPacker) prefixAtom(c Cond) (Hdr, Prefix, bool) {
	pf, ok := c.(Prefix)
	if !ok {
		return Hdr{}, Prefix{}, false
	}
	h, ok := packField(pf.E)
	if !ok {
		return Hdr{}, Prefix{}, false
	}
	return h, pf, true
}

// sharedEqW folds one equality-constant width into the shared value.
func (p *orPacker) sharedEqW(w int) bool {
	if !p.haveEqW {
		p.eqW, p.haveEqW = w, true
		return true
	}
	return w == p.eqW
}

func (p *orPacker) sharedPW(w int) bool {
	if !p.havePW {
		p.pw, p.havePW = w, true
		return true
	}
	return w == p.pw
}

// add parses one disjunct; false aborts packing.
func (p *orPacker) add(c Cond) bool {
	if h, v, w, ok := p.eqAtom(c); ok {
		if !p.field(h) || !p.sharedEqW(w) {
			return false
		}
		p.rows = append(p.rows, expr.GuardRow{Kind: expr.GuardEq, V: v})
		return true
	}
	if h, pf, ok := p.prefixAtom(c); ok {
		if !p.field(h) || !p.sharedPW(pf.Width) {
			return false
		}
		p.rows = append(p.rows, expr.GuardRow{Kind: expr.GuardPrefix, V: pf.Value, Len: pf.Len})
		return true
	}
	// Exclusion shape: equality/prefix head plus prefix negations on the
	// same field.
	and, ok := c.(CAnd)
	if !ok || len(and.Cs) < 2 {
		return false
	}
	var row expr.GuardRow
	var h Hdr
	if hh, v, w, ok := p.eqAtom(and.Cs[0]); ok {
		if !p.sharedEqW(w) {
			return false
		}
		h, row = hh, expr.GuardRow{Kind: expr.GuardEq, V: v}
	} else if hh, pf, ok := p.prefixAtom(and.Cs[0]); ok {
		if !p.sharedPW(pf.Width) {
			return false
		}
		h, row = hh, expr.GuardRow{Kind: expr.GuardPrefix, V: pf.Value, Len: pf.Len}
	} else {
		return false
	}
	if !p.field(h) {
		return false
	}
	for _, sub := range and.Cs[1:] {
		not, ok := sub.(CNot)
		if !ok {
			return false
		}
		eh, pf, ok := p.prefixAtom(not.C)
		if !ok || eh != p.f || !p.sharedPW(pf.Width) {
			return false
		}
		row.Excl = append(row.Excl, expr.GuardExcl{V: pf.Value, Len: pf.Len})
	}
	p.rows = append(p.rows, row)
	return true
}

// packOr returns the packed wire node for a table-shaped Or, or nil — also
// when the Or is too small for a table (expr.TableSized, the compiler's gate),
// where the tree form is just as small.
func packOr(cs []Cond) *WireCond {
	p := &orPacker{}
	for _, c := range cs {
		if !p.add(c) {
			return nil
		}
	}
	if !expr.TableSized(p.rows) {
		return nil
	}
	w := &WireCond{Kind: wCOrPacked, W: p.eqW, PW: p.pw, Rows: expr.PackGuardRows(p.rows)}
	fw, err := EncodeExpr(Ref{LV: p.f})
	if err != nil {
		return nil
	}
	w.L = fw
	return w
}

// unpackOr rebuilds the original COr from a packed node.
func unpackOr(w *WireCond) (Cond, error) {
	fe, err := DecodeExpr(w.L)
	if err != nil {
		return nil, err
	}
	rows, err := expr.UnpackGuardRows(w.Rows)
	if err != nil {
		return nil, fmt.Errorf("sefl: packed Or: %w", err)
	}
	prefix := func(v uint64, plen int) Cond {
		return Prefix{E: fe, Value: v, Len: plen, Width: w.PW}
	}
	cs := make([]Cond, 0, len(rows))
	for _, r := range rows {
		var head Cond
		switch r.Kind {
		case expr.GuardEq:
			head = Cmp{Op: expr.Eq, L: fe, R: Num{V: r.V, W: w.W}}
		case expr.GuardPrefix:
			head = prefix(r.V, r.Len)
		}
		if len(r.Excl) == 0 {
			cs = append(cs, head)
			continue
		}
		sub := make([]Cond, 0, len(r.Excl)+1)
		sub = append(sub, head)
		for _, e := range r.Excl {
			sub = append(sub, CNot{C: prefix(e.V, e.Len)})
		}
		cs = append(cs, CAnd{Cs: sub})
	}
	return COr{Cs: cs}, nil
}
