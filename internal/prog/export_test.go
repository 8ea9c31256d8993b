package prog

// ExactRuleOnly reports whether p summarizes only because the mint rule is
// exact: it has a For, or an If with a mint site in its continuation — both
// of which the conservative rule before it (no mint downstream of any
// branch point, no For at all) refused.
func ExactRuleOnly(p *Program) bool {
	b := &sumBuilder{p: p}
	b.buildSuffMints()
	b.node(p.Entry, p.Seg(p.Entry).Lo, nil)
	if b.reason != "" {
		return false
	}
	for _, n := range b.nodes {
		if n.Term == TermFor {
			return true
		}
	}
	for _, f := range b.frames {
		if f.mints > 0 && p.Ops[f.idx-1].Kind == OpIf {
			return true
		}
	}
	return false
}
