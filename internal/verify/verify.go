// Package verify provides the network-verification queries of §6 of the
// paper on top of the core engine: the all-pairs reachability report, and
// per-path field queries (final value, domain, invariance, end-to-end
// equality).
package verify

import (
	"fmt"

	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// resolveHdr resolves a header shorthand against a path's final tag values.
func resolveHdr(p *core.Path, h sefl.Hdr) (int64, error) {
	if h.Off.Tag == "" {
		return h.Off.Rel, nil
	}
	base, ok := p.Mem.Tag(h.Off.Tag)
	if !ok {
		return 0, fmt.Errorf("verify: tag %q not set on path %d", h.Off.Tag, p.ID)
	}
	return base + h.Off.Rel, nil
}

// FieldValue returns the final symbolic value of a header field on a path.
func FieldValue(p *core.Path, h sefl.Hdr) (expr.Lin, error) {
	off, err := resolveHdr(p, h)
	if err != nil {
		return expr.Lin{}, err
	}
	return p.Mem.ReadHdr(off, h.Size)
}

// FieldDomain returns the set of values a header field can take at the end
// of a path, under the path's constraints.
func FieldDomain(p *core.Path, h sefl.Hdr) (*solver.IntervalSet, error) {
	v, err := FieldValue(p, h)
	if err != nil {
		return nil, err
	}
	return p.Ctx().Domain(v), nil
}

// FieldInvariant reports whether a header field was never modified along the
// path: every recorded assignment is the same term. This is the paper's
// invariance check via the per-field value history.
func FieldInvariant(p *core.Path, h sefl.Hdr) (bool, error) {
	off, err := resolveHdr(p, h)
	if err != nil {
		return false, err
	}
	hist, err := p.Mem.HdrHistory(off, h.Size)
	if err != nil {
		return false, err
	}
	if len(hist) == 0 {
		return false, fmt.Errorf("verify: field %s never assigned", h)
	}
	first := hist[0]
	for _, v := range hist[1:] {
		if !v.Equal(first) {
			return false, nil
		}
	}
	return true, nil
}

// FieldEndToEnd reports whether the field's final value provably equals its
// first (injected) value: either syntactically, or forced by the path
// constraints (checked by asking the solver whether first != last is
// satisfiable).
func FieldEndToEnd(p *core.Path, h sefl.Hdr) (bool, error) {
	off, err := resolveHdr(p, h)
	if err != nil {
		return false, err
	}
	hist, err := p.Mem.HdrHistory(off, h.Size)
	if err != nil {
		return false, err
	}
	if len(hist) == 0 {
		return false, fmt.Errorf("verify: field %s never assigned", h)
	}
	first, last := hist[0], hist[len(hist)-1]
	if first.Equal(last) {
		return true, nil
	}
	// Ask the solver whether first != last is satisfiable under the path
	// constraints; if not, the values are provably equal end to end.
	ctx := p.Ctx().CloneInto(new(solver.Context))
	if !ctx.Add(expr.NewCmp(expr.Ne, first, last)) {
		return true, nil
	}
	return !ctx.Sat(), nil
}
