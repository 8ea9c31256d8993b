package solver

import (
	"fmt"
	"slices"
	"sort"

	"symnet/internal/expr"
	"symnet/internal/obs"
	"symnet/internal/persist"
)

// Stats accumulates solver activity across a run; the evaluation section of
// the paper reports "time spent in and number of calls to the constraint
// solver", which these counters feed.
//
// Counters are deterministic for a given query regardless of worker count
// or satisfiability-cache warmth: cached Sat decisions replay the branch
// count of the original computation (see SatCache).
//
// CacheHits and CacheMisses are the exception, and the engine therefore
// never fills them during a run: whether a given check hits depends on
// which sibling path or worker warmed the cache first, so live-counting
// them would make Stats diverge across worker counts and break the
// byte-identical results contract. They are folded in from a SatCache at
// the reporting boundary (AddCache) — after exploration, by whoever owns
// the cache — where they describe the whole cache's lifetime rather than
// one racy interleaving.
type Stats struct {
	Adds      int // conditions asserted
	SatChecks int // full satisfiability decisions
	Branches  int // DPLL case splits explored
	Models    int // concrete models generated

	// CacheHits/CacheMisses are SatCache telemetry folded in via AddCache
	// at reporting time; they stay zero during runs (see type comment).
	CacheHits   int
	CacheMisses int
}

// AddCache folds a cache's lifetime hit/miss counters into the stats. Call
// it when reporting, after the runs sharing the cache have finished — the
// CLIs do this before printing their solver block.
func (s *Stats) AddCache(c *SatCache) {
	if c == nil {
		return
	}
	s.CacheHits += int(c.Hits())
	s.CacheMisses += int(c.Misses())
}

type ufEntry struct {
	parent expr.SymID // root when parent == self
	off    uint64     // value(self) = value(parent) + off (mod 2^width)
	width  int
}

type diseq struct {
	a, b expr.SymID
	off  uint64 // constraint: value(a) != value(b) + off
}

// relCmp is a residual ordering comparison between two symbolic terms:
// value(a) + aAdd  op  value(b) + bAdd. These are rare in network models
// (none of the paper's models need them) and are decided during Sat with
// hull reasoning, then checked exactly as the model assigns both ends.
type relCmp struct {
	op         expr.CmpOp
	a, b       expr.SymID
	aAdd, bAdd uint64
	width      int
}

// classInfo describes one union-find equivalence class during ground solving.
type classInfo struct {
	root   expr.SymID
	width  int
	dom    *IntervalSet
	diseqs []diseq  // canonicalized on roots
	rels   []relCmp // cross-class orderings, canonicalized on roots
}

// symHash hashes the keys of the union-find and domain stores.
type symHash struct{}

func (symHash) Hash(s expr.SymID) uint64 { return persist.Mix64(uint64(s)) }

// residue holds the constraints network models rarely make, nil when there
// are none. It is never written once built (an append builds a new one, see
// grow), so clones share it freely.
type residue struct {
	diseqs  []diseq
	rels    []relCmp
	pending []expr.Cond
}

// runInfo is what every context of one run shares, allocated once by
// NewContext. stats and satNs are nil once the run ended (EndRun). satNs
// observes the wall time of every full Sat decision (a hit's is the
// lookup); nil, the default, costs one branch and reads no clock.
type runInfo struct {
	stats *Stats
	cache *SatCache
	satNs *obs.Histogram
}

// Context is an incrementally-built conjunction of conditions. Add asserts a
// condition and eagerly propagates everything deterministic; residual
// disjunctions are kept pending and resolved by Sat via DPLL branching.
//
// The representation is persistent: the union-find and domain stores are
// structure-sharing tries and the residue is never written in place, so
// Clone copies a constant-size header no matter how much constraint state
// has accumulated. Mutating operations copy only the touched spine. A
// symbol the context has seen is a key of either store: the union-find
// holds unions only (and symbols seen unconstrained), the domain store
// every constrained root, whose IntervalSet carries its width.
//
// Context is not safe for concurrent use, but distinct clones may be used
// from distinct goroutines: mutation never writes through shared structure
// (SetCache, SetSatHistogram and EndRun write the run, which clones share).
type Context struct {
	uf      persist.Map[expr.SymID, ufEntry, symHash]
	domains persist.Map[expr.SymID, *IntervalSet, symHash] // keyed by union-find root
	res     *residue
	run     *runInfo
	fp      expr.Fp // chained fingerprint of the Add sequence
	nAdds   int32   // conditions chained into fp
	unsat   bool
}

// NewContext returns an empty, satisfiable context that, with its clones,
// counts into the given stats collector (a fresh one when nil) until EndRun.
func NewContext(stats *Stats) *Context {
	if stats == nil {
		stats = &Stats{}
	}
	return &Context{run: &runInfo{stats: stats}}
}

// counters returns the run's collector, or, once the run ended, a fresh one.
func (c *Context) counters() *Stats {
	if s := c.run.stats; s != nil {
		return s
	}
	return new(Stats)
}

// SetCache attaches a satisfiability memo cache (nil disables memoization)
// to c's run: every clone of its first context, before or after, uses it.
func (c *Context) SetCache(sc *SatCache) { c.run.cache = sc }

// SetSatHistogram attaches a latency histogram observing every full Sat
// decision (nil disables, the default) to c's run, as SetCache attaches a
// cache. Purely observational: it never affects verdicts, statistics, or
// fingerprints.
func (c *Context) SetSatHistogram(h *obs.Histogram) { c.run.satNs = h }

// EndRun ends c's run: no context of it counts into its stats collector or
// histogram any more, so its contexts may be read (Sat, Model, ModelDiverse)
// and cloned from any number of goroutines.
func (c *Context) EndRun() { c.run.stats, c.run.satNs = nil, nil }

// Fingerprint returns the chained structural fingerprint of the conditions
// asserted so far; equal fingerprints identify identical Add sequences.
func (c *Context) Fingerprint() expr.Fp { return c.fp }

// Unsat reports whether the context has been refuted by propagation alone.
func (c *Context) Unsat() bool { return c.unsat }

// PendingOrs reports the number of unresolved disjunctions (for tests and
// diagnostics).
func (c *Context) PendingOrs() int { return len(c.residue().pending) }

// residue returns c's residue, empty when it has none.
func (c *Context) residue() residue {
	if c.res == nil {
		return residue{}
	}
	return *c.res
}

// grow gives c a copy of its residue, with slices clipped so that an append
// copies, and returns it.
func (c *Context) grow() *residue {
	r := c.residue()
	c.res = &residue{diseqs: slices.Clip(r.diseqs), rels: slices.Clip(r.rels), pending: slices.Clip(r.pending)}
	return c.res
}

// CloneInto makes n an independent copy of c in O(1), sharing c's run, and
// returns n. It is a pure read of the receiver. The caller owns n's
// storage, so a fork can place the copy beside the rest of its path state
// (core's State.clone does).
func (c *Context) CloneInto(n *Context) *Context {
	*n = *c
	return n
}

// CloneIntoRun is CloneInto for a copy that starts a run of its own, as
// NewContext's context does: n and its clones count into stats (none, as
// after EndRun, when stats is nil) and use no cache or histogram until
// SetCache and SetSatHistogram attach them. It is a pure read of the
// receiver, so one frozen context may seed any number of concurrent runs.
func (c *Context) CloneIntoRun(n *Context, stats *Stats) *Context {
	*n = *c
	n.run = &runInfo{stats: stats}
	return n
}

// find returns the root of s and the offset such that
// value(s) = value(root) + off; an unseen symbol is its own root, and stays
// unseen. find is iterative and performs full path compression: after a
// lookup every symbol on the walked chain points directly at the root, so
// long union chains are paid for once, not per lookup, and no chain length
// can overflow the stack.
func (c *Context) find(s expr.SymID) (expr.SymID, uint64) {
	e, ok := c.uf.Get(s)
	if !ok || e.parent == s {
		return s, 0
	}
	// Fast path: parent is already the root (the common post-compression
	// shape) — no writes needed.
	pe, _ := c.uf.Get(e.parent)
	if pe.parent == e.parent {
		return e.parent, e.off
	}
	// General case: collect the chain from s up to (excluding) the root...
	type hop struct {
		sym expr.SymID
		e   ufEntry
	}
	path := make([]hop, 0, 16)
	cur, ce := s, e
	for ce.parent != cur {
		path = append(path, hop{cur, ce})
		next := ce.parent
		ce, _ = c.uf.Get(next)
		cur = next
	}
	root := cur
	// ...then walk it backwards accumulating offsets-to-root and write the
	// compressed entries back.
	var total uint64
	for i := len(path) - 1; i >= 0; i-- {
		h := path[i]
		total = (total + h.e.off) & expr.Mask(h.e.width)
		if h.e.parent != root {
			c.uf = c.uf.Set(h.sym, ufEntry{parent: root, off: total, width: h.e.width})
		}
	}
	return root, total
}

// see records s as seen, a root of the given width, when neither store
// holds it, so Model gives it a value.
func (c *Context) see(s expr.SymID, width int) {
	_, inUF := c.uf.Get(s)
	if _, inDom := c.domains.Get(s); !inUF && !inDom {
		c.uf = c.uf.Set(s, ufEntry{parent: s, width: width})
	}
}

func (c *Context) widthOf(s expr.SymID) int {
	if e, ok := c.uf.Get(s); ok {
		return e.width
	}
	d, _ := c.domains.Get(s)
	return d.Width
}

// domainOf returns the current domain of a root (full if untracked).
func (c *Context) domainOf(root expr.SymID, width int) *IntervalSet {
	if d, ok := c.domains.Get(root); ok {
		return d
	}
	return full(width)
}

// constrainRoot intersects the root's domain with set; flags unsat on empty.
// An untracked root's domain is the universe, so it becomes set itself.
func (c *Context) constrainRoot(root expr.SymID, set *IntervalSet) {
	old, tracked := c.domains.Get(root)
	d := set
	if tracked {
		d = old.intersect(set)
	}
	c.setDomain(root, old, tracked, d)
}

// setDomain records d, the root's domain narrowed from old (tracked false:
// from the universe); flags unsat on empty. A tracked domain the narrowing
// leaves unchanged (the intersection returns it as is) is not written back,
// so a redundant assertion copies no map spine; an untracked root is always
// written.
func (c *Context) setDomain(root expr.SymID, old *IntervalSet, tracked bool, d *IntervalSet) {
	if !tracked || d != old {
		c.domains = c.domains.Set(root, d)
	}
	if d.isEmpty() {
		c.unsat = true
	}
}

// Domain returns the set of values the term can take under the deterministic
// part of the context (pending disjunctions are ignored, which makes the
// result an over-approximation). It only reads: the term's root is found by
// walking the union-find, as Domains.Within does, without inserting an
// unseen symbol or compressing a chain, so a finished path's context may be
// read from any number of goroutines, and a symbol Domain was asked about
// is no more seen by Model than before (Mention makes it so).
func (c *Context) Domain(l expr.Lin) *IntervalSet {
	if v, ok := l.ConstVal(); ok {
		return Singleton(v, l.Width)
	}
	root, off := rootIn(c.uf, l.Sym)
	return c.domainOf(root, l.Width).shift(off + l.Add)
}

// Mention makes the term's symbol one the context has seen, a class of its
// own when nothing constrains it, so Model and ModelDiverse give it a value
// (ModelDiverse one apart from other free symbols'). No domain changes.
func (c *Context) Mention(l expr.Lin) {
	if !l.IsConst() {
		c.see(l.Sym, l.Width)
	}
}

// Add asserts cond. It returns false when the context became definitely
// unsatisfiable. A true return means "not yet refuted": if disjunctions are
// pending, call Sat for the authoritative answer.
//
// The condition's structural fingerprint is chained into the context's
// fingerprint, which keys the satisfiability memo cache.
func (c *Context) Add(cond expr.Cond) bool {
	if c.unsat {
		return false
	}
	c.counters().Adds++
	c.fp = c.fp.Chain(expr.HashCond(cond))
	c.nAdds++
	c.assert(cond, false)
	return !c.unsat
}

// Refutes reports that Add(cond) would return false, without changing the
// context. It answers true only where propagation alone decides and the
// answer reads straight off the domains: a Bool; a comparison of a term
// with a constant, on either side, or of two constants; a term's membership
// in a table (InSet) that its root offset does not shift; the negation
// (expr.Not) of a Bool or comparison. Every other condition answers false,
// which says nothing about Add. A refuted context refutes everything.
//
// It makes no union-find insert and no path compression and allocates
// nothing, so the engine asks it before cloning a state for a branch:
// a refuted branch needs no clone. A caller that skips the Add counts it
// itself in the run's stats (Stats.Adds counts Adds on contexts not yet
// refuted).
func (c *Context) Refutes(cond expr.Cond) bool {
	return c.unsat || c.refutes(cond, false)
}

// refutes is Refutes for cond, or for its negation when neg is set.
func (c *Context) refutes(cond expr.Cond, neg bool) bool {
	switch v := cond.(type) {
	case expr.Bool:
		return bool(v) == neg
	case expr.Not:
		switch v.C.(type) {
		case expr.Bool, expr.Cmp:
			return c.refutes(v.C, !neg)
		}
	case expr.Cmp:
		op, l := v.Op, v.L
		if neg {
			op = op.Negate()
		}
		lv, lConst := v.L.ConstVal()
		rv, rConst := v.R.ConstVal()
		switch {
		case lConst && rConst:
			return !expr.EvalCmp(op, lv, rv)
		case lConst:
			op, l, rv = op.Flip(), v.R, lv
		case !rConst:
			return false
		}
		lo, hi, out := cmpArc(op, rv, l.Width)
		root, off := c.root(l.Sym)
		var buf [2]interval
		return c.misses(root, arcIntervals(&buf, lo, hi, -(off+l.Add), out, l.Width))
	case expr.InSet:
		if neg || v.L.IsConst() {
			return false
		}
		root, off := c.root(v.L.Sym)
		if -(off+v.L.Add)&expr.Mask(v.L.Width) != 0 {
			return false
		}
		return c.misses(root, v.T.Spans())
	}
	return false
}

// root is find without its writes: the root of s and the offset with
// value(s) = value(root) + off, walking the chain without compressing it.
// An unseen symbol is its own root.
func (c *Context) root(s expr.SymID) (expr.SymID, uint64) { return rootIn(c.uf, s) }

func rootIn(uf persist.Map[expr.SymID, ufEntry, symHash], s expr.SymID) (expr.SymID, uint64) {
	var off uint64
	for {
		e, ok := uf.Get(s)
		if !ok || e.parent == s {
			return s, off
		}
		off = (off + e.off) & expr.Mask(e.width)
		s = e.parent
	}
}

// Domains is a read-only view of a context's union-find and domain stores
// as they stood when Context.Domains took it. A context writes those stores
// by path copying only, never in place, so the view stays as it was while
// the context goes on, and reading it writes nothing to either.
type Domains struct {
	uf      persist.Map[expr.SymID, ufEntry, symHash]
	domains persist.Map[expr.SymID, *IntervalSet, symHash]
}

// Domains returns the view of c's stores as they stand now.
func (c *Context) Domains() Domains { return Domains{uf: c.uf, domains: c.domains} }

// Within reports that every value the term l can take under d is one the
// term ol can take under o, each read as Context.Domain reads it. It walks
// each domain shifted in place, so it allocates nothing. Terms of different
// widths are never within each other.
func (d *Domains) Within(l expr.Lin, o *Domains, ol expr.Lin) bool {
	if l.Width != ol.Width {
		return false
	}
	var ab, bb [1]interval
	a, ka := d.term(&ab, l)
	b, kb := o.term(&bb, ol)
	m := expr.Mask(l.Width)
	k := (ka - kb) & m
	for _, iv := range a {
		lo, hi := (iv.Lo+k)&m, (iv.Hi+k)&m
		if lo <= hi {
			if !covers(b, lo, hi) {
				return false
			}
		} else if !covers(b, lo, m) || !covers(b, 0, hi) { // wrapped
			return false
		}
	}
	return true
}

// term returns l's domain under d as intervals ivs and a shift k: the
// values are {(x + k) mod 2^width : x ∈ ivs}. A constant or an untracked
// root is one interval, written to buf.
func (d *Domains) term(buf *[1]interval, l expr.Lin) ([]interval, uint64) {
	if v, ok := l.ConstVal(); ok {
		v &= expr.Mask(l.Width)
		buf[0] = interval{Lo: v, Hi: v}
		return buf[:], 0
	}
	root, off := rootIn(d.uf, l.Sym)
	if dom, ok := d.domains.Get(root); ok {
		return dom.ivs, off + l.Add
	}
	buf[0] = interval{Lo: 0, Hi: expr.Mask(l.Width)}
	return buf[:], 0
}

// covers reports [lo, hi] ⊆ ivs for canonical intervals (sorted, disjoint
// and non-adjacent), where one interval must hold the whole range.
func covers(ivs []interval, lo, hi uint64) bool {
	i, j := 0, len(ivs)
	for i < j { // the first interval ending at or past lo
		h := int(uint(i+j) >> 1)
		if ivs[h].Hi < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i < len(ivs) && ivs[i].Lo <= lo && hi <= ivs[i].Hi
}

// misses reports that narrowing the root's domain to the canonical
// intervals ivs would leave it empty: a two-pointer overlap test, or, for
// an untracked root (the universe), whether ivs is empty.
func (c *Context) misses(root expr.SymID, ivs []interval) bool {
	d, tracked := c.domains.Get(root)
	if !tracked {
		return len(ivs) == 0
	}
	for i, j := 0, 0; i < len(d.ivs) && j < len(ivs); {
		a, b := d.ivs[i], ivs[j]
		if max(a.Lo, b.Lo) <= min(a.Hi, b.Hi) {
			return false
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return true
}

// assert handles one condition; neg requests the negation.
func (c *Context) assert(cond expr.Cond, neg bool) {
	if c.unsat {
		return
	}
	switch v := cond.(type) {
	case expr.Bool:
		if bool(v) == neg {
			c.unsat = true
		}
	case expr.Not:
		c.assert(v.C, !neg)
	case expr.And:
		if neg { // ¬(a ∧ b) = ¬a ∨ ¬b
			if l, set, ok := atomSet(v); ok {
				c.assertTermInSet(l, set.complement())
				return
			}
			ors := make([]expr.Cond, len(v.Cs))
			for i, sub := range v.Cs {
				ors[i] = expr.NewNot(sub)
			}
			c.assertOr(ors)
			return
		}
		for _, sub := range v.Cs {
			c.assert(sub, false)
		}
	case expr.Or:
		if neg { // ¬(a ∨ b) = ¬a ∧ ¬b — batched via the complement set when
			// the disjunction constrains one symbol (ingress else-branches).
			if l, set, ok := atomSet(v); ok {
				c.assertTermInSet(l, set.complement())
				return
			}
			for _, sub := range v.Cs {
				c.assert(sub, true)
			}
			return
		}
		c.assertOr(v.Cs)
	case expr.Cmp:
		op := v.Op
		if neg {
			op = op.Negate()
		}
		c.assertCmp(op, v.L, v.R)
	case expr.Match:
		// A prefix match is a range, and its negation the rest of the
		// cycle; single-symbol either way, so it folds into the domain
		// directly.
		lo, hi := prefixArc(v.Mask, v.Val, v.L.Width)
		if v.L.IsConst() {
			c.assertTermInSet(v.L, fromArc(lo, hi, 0, neg, v.L.Width))
			return
		}
		c.assertArc(v.L, lo, hi, neg)
	case expr.InSet:
		// A compiled interval-table guard: the disjuncts' solution sets were
		// merged once at compile time, so the whole table-wide guard is one
		// domain intersection here — no per-atom walk, no pending Or.
		if !neg && !v.L.IsConst() {
			c.assertInTable(v.L, v.T)
			return
		}
		set := fromSpanTable(v.T)
		if neg {
			set = set.complement()
		}
		c.assertTermInSet(v.L, set)
	default:
		panic(fmt.Sprintf("solver: unknown condition %T", cond))
	}
}

// assertTermInSet constrains term l to lie in set (defined over l's width).
func (c *Context) assertTermInSet(l expr.Lin, set *IntervalSet) {
	if v, ok := l.ConstVal(); ok {
		if !set.Contains(v) {
			c.unsat = true
		}
		return
	}
	root, off := c.find(l.Sym)
	// value(l) = value(root) + off + l.Add must be in set
	// => value(root) ∈ set shifted by -(off + l.Add).
	c.constrainRoot(root, set.shift(-(off + l.Add)))
}

// assertArc constrains the symbolic term l to the arc [lo, hi] of its value
// cycle, or to the rest of the cycle when out is set: assertTermInSet of
// that set, with the same domains and map writes, but a tracked root's
// domain is intersected with the shifted arc's intervals straight from the
// stack. Only an untracked root allocates, for the set it is given.
func (c *Context) assertArc(l expr.Lin, lo, hi uint64, out bool) {
	root, off := c.find(l.Sym)
	k := -(off + l.Add)
	old, tracked := c.domains.Get(root)
	if !tracked {
		c.setDomain(root, nil, false, fromArc(lo, hi, k, out, l.Width))
		return
	}
	var buf [2]interval
	c.setDomain(root, old, true, old.intersectIntervals(arcIntervals(&buf, lo, hi, k, out, l.Width)))
}

// assertInTable constrains the symbolic term l to the table t:
// assertTermInSet of fromSpanTable(t), with the same domains and map writes,
// but when no offset shifts the table a tracked root's domain is intersected
// with the table's spans without a set wrapping them. A full domain becomes
// the table itself, so that case takes the wrapper.
func (c *Context) assertInTable(l expr.Lin, t *expr.SpanTable) {
	root, off := c.find(l.Sym)
	k := -(off + l.Add) & expr.Mask(l.Width)
	if old, tracked := c.domains.Get(root); tracked && k == 0 && !old.isFull() {
		c.setDomain(root, old, true, old.intersectIntervals(t.Spans()))
		return
	}
	c.constrainRoot(root, fromSpanTable(t).shift(k))
}

func (c *Context) assertCmp(op expr.CmpOp, l, r expr.Lin) {
	lv, lConst := l.ConstVal()
	rv, rConst := r.ConstVal()
	switch {
	case lConst && rConst:
		if !expr.EvalCmp(op, lv, rv) {
			c.unsat = true
		}
	case lConst:
		c.assertCmp(op.Flip(), r, l)
	case rConst:
		// (sym + add) op const  =>  sym ∈ shift(solutions(op, const), -add)
		lo, hi, out := cmpArc(op, rv, l.Width)
		c.assertArc(l, lo, hi, out)
	default:
		c.assertSymSym(op, l, r)
	}
}

// assertSymSym handles comparisons where both sides carry symbols.
func (c *Context) assertSymSym(op expr.CmpOp, l, r expr.Lin) {
	w := l.Width
	if r.Width != w {
		// Cross-width symbolic comparisons do not occur in well-typed SEFL
		// models; refuting the path is safer than guessing a semantics.
		panic(fmt.Sprintf("solver: width mismatch %d vs %d in %s %s %s", l.Width, r.Width, l, op, r))
	}
	m := expr.Mask(w)
	lr, lo := c.find(l.Sym)
	rr, ro := c.find(r.Sym)
	// value(l) = value(lr) + lAdd ; value(r) = value(rr) + rAdd
	lAdd := (lo + l.Add) & m
	rAdd := (ro + r.Add) & m
	if op != expr.Eq || lr == rr { // a union records both roots itself
		c.see(lr, w)
		c.see(rr, w)
	}
	switch op {
	case expr.Eq:
		// value(lr) + lAdd == value(rr) + rAdd
		// => value(lr) = value(rr) + (rAdd - lAdd)
		c.union(lr, rr, (rAdd-lAdd)&m, w)
	case expr.Ne:
		if lr == rr {
			if lAdd == rAdd {
				c.unsat = true
			}
			return // offsets differ: always distinct
		}
		res := c.grow()
		res.diseqs = append(res.diseqs, diseq{a: lr, b: rr, off: (rAdd - lAdd) & m})
	default:
		res := c.grow()
		res.rels = append(res.rels, relCmp{op: op, a: lr, b: rr, aAdd: lAdd, bAdd: rAdd, width: w})
	}
}

// union merges value(a) = value(b) + off.
func (c *Context) union(a, b expr.SymID, off uint64, width int) {
	if a == b {
		if off != 0 {
			c.unsat = true
		}
		return
	}
	// Attach a under b: value(a) = value(b) + off.
	domA := c.domainOf(a, width)
	c.uf = c.uf.Set(a, ufEntry{parent: b, off: off, width: width})
	c.domains = c.domains.Delete(a)
	if _, ok := c.uf.Get(b); !ok {
		c.uf = c.uf.Set(b, ufEntry{parent: b, width: width})
	}
	// value(a) ∈ domA  =>  value(b) ∈ domA - off.
	c.constrainRoot(b, domA.shift(-off))
	c.checkDiseqs()
}

// checkDiseqs flags unsat when any disequality now relates a class to itself
// with matching offset.
func (c *Context) checkDiseqs() {
	for _, d := range c.residue().diseqs {
		w := c.widthOf(d.a)
		ra, oa := c.find(d.a)
		rb, ob := c.find(d.b)
		if ra == rb && oa == (ob+d.off)&expr.Mask(w) {
			c.unsat = true
			return
		}
	}
}

// assertOr records a disjunction, first attempting compression: when every
// disjunct constrains the same single symbol, the union of the per-disjunct
// solution sets becomes one domain constraint. This is the key optimization
// behind the egress switch/router models in the paper's Fig. 8 and Table 2.
func (c *Context) assertOr(cs []expr.Cond) {
	live := make([]expr.Cond, 0, len(cs))
	for _, sub := range cs {
		if b, ok := sub.(expr.Bool); ok {
			if bool(b) {
				return
			}
			continue // drop trivially-false disjunct
		}
		live = append(live, sub)
	}
	if len(live) == 0 {
		c.unsat = true
		return
	}
	if len(live) == 1 {
		c.assert(live[0], false)
		return
	}
	if l, set, ok := combineAtoms(live, false); ok {
		c.assertTermInSet(l, set)
		return
	}
	res := c.grow()
	res.pending = append(res.pending, expr.Or{Cs: live})
}

// atomSet expresses a condition as "symbol ∈ set" when it constrains a
// single symbolic term: comparisons against constants, prefix matches,
// their negations, and single-symbol And/Or combinations thereof.
func atomSet(cond expr.Cond) (expr.Lin, *IntervalSet, bool) {
	switch v := cond.(type) {
	case expr.Cmp:
		rv, rConst := v.R.ConstVal()
		lv, lConst := v.L.ConstVal()
		switch {
		case !lConst && rConst:
			return bare(v.L), fromCmp(v.Op, rv, v.L.Width).shift(-v.L.Add), true
		case lConst && !rConst:
			return bare(v.R), fromCmp(v.Op.Flip(), lv, v.R.Width).shift(-v.R.Add), true
		}
		return expr.Lin{}, nil, false
	case expr.Match:
		if v.L.IsConst() {
			return expr.Lin{}, nil, false
		}
		lo, hi := prefixArc(v.Mask, v.Val, v.L.Width)
		return bare(v.L), fromRange(lo, hi, v.L.Width).shift(-v.L.Add), true
	case expr.InSet:
		return bare(v.L), fromSpanTable(v.T).shift(-v.L.Add), true
	case expr.Not:
		l, set, ok := atomSet(v.C)
		if !ok {
			return expr.Lin{}, nil, false
		}
		return l, set.complement(), true
	case expr.And:
		return combineAtoms(v.Cs, true)
	case expr.Or:
		return combineAtoms(v.Cs, false)
	}
	return expr.Lin{}, nil, false
}

// bare strips the additive offset: atomSet returns sets over the raw symbol.
func bare(l expr.Lin) expr.Lin { return expr.Lin{Sym: l.Sym, Width: l.Width} }

// combineAtoms intersects (and=true) or unions the atom sets of cs, provided
// they all constrain the same symbol. Unions are merged in one k-way pass so
// huge disjunctions (egress switch ports) stay linear.
func combineAtoms(cs []expr.Cond, and bool) (expr.Lin, *IntervalSet, bool) {
	var term expr.Lin
	var acc *IntervalSet
	var pendingUnion []*IntervalSet
	for i, sub := range cs {
		l, set, ok := atomSet(sub)
		if !ok {
			return expr.Lin{}, nil, false
		}
		if i == 0 {
			term, acc = l, set
			if !and {
				pendingUnion = append(pendingUnion, set)
			}
			continue
		}
		if l != term {
			return expr.Lin{}, nil, false
		}
		if and {
			acc = acc.intersect(set)
		} else {
			pendingUnion = append(pendingUnion, set)
		}
	}
	if acc == nil {
		return expr.Lin{}, nil, false
	}
	if !and && len(pendingUnion) > 1 {
		acc = UnionAll(term.Width, pendingUnion)
	}
	return term, acc, true
}

// Sat decides satisfiability of the full context, branching over pending
// disjunctions and deciding residual symbolic comparisons. When a memo
// cache is attached, previously decided Add sequences are answered from the
// cache with their original branch count replayed into the stats, so the
// statistics trail is identical whether a check hit or missed.
func (c *Context) Sat() bool {
	st := c.counters()
	st.SatChecks++
	if c.unsat {
		return false
	}
	t := c.run.satNs.Start() // zero Timer (no clock read) when no histogram is attached
	defer t.Stop()
	cache := c.run.cache
	if cache == nil {
		_, ok := c.solve(st, false, 0)
		return ok
	}
	key := satKey{Fp: c.fp, N: c.nAdds}
	if e, ok := cache.lookup(key); ok {
		st.Branches += e.Branches
		return e.Sat
	}
	before := st.Branches
	_, ok := c.solve(st, false, 0)
	cache.store(key, satVerdict{Sat: ok, Branches: st.Branches - before})
	return ok
}

// Model returns a satisfying assignment covering every symbol the context
// has seen. The second result is false when the context is unsatisfiable.
// Values are chosen minimum-first, which lands on boundary values (0, range
// edges) — the behaviour that exposed the paper's DecIPTTL and IPClassifier
// findings.
func (c *Context) Model() (map[expr.SymID]uint64, bool) {
	return c.modelSalted(0)
}

// ModelDiverse returns a satisfying assignment that spreads values across
// each class's domain (classes pick different ranks), so unrelated fields
// don't all collapse to the same boundary value. Conformance testing runs
// both models per path: Model for boundary bugs, ModelDiverse for
// value-aliasing bugs (e.g. a mirror model that looks right when src==dst).
func (c *Context) ModelDiverse(salt uint64) (map[expr.SymID]uint64, bool) {
	return c.modelSalted(salt + 1)
}

func (c *Context) modelSalted(salt uint64) (map[expr.SymID]uint64, bool) {
	st := c.counters()
	st.SatChecks++
	m, ok := c.solve(st, true, salt)
	if ok {
		st.Models++
	}
	return m, ok
}

// solve is the DPLL core: resolve pending disjunctions by branching, then
// decide the deterministic residue by model construction. It counts its
// branches into st and writes nothing c shares.
func (c *Context) solve(st *Stats, wantModel bool, salt uint64) (map[expr.SymID]uint64, bool) {
	if c.unsat {
		return nil, false
	}
	res := c.residue()
	if len(res.pending) == 0 {
		return c.solveGround(wantModel, salt)
	}
	or, rest := res.pending[0].(expr.Or), res
	rest.pending = rest.pending[1:]
	for _, choice := range or.Cs {
		st.Branches++
		br := c.CloneInto(new(Context))
		br.res = &rest
		br.assert(choice, false)
		if br.unsat {
			continue
		}
		if m, ok := br.solve(st, wantModel, salt); ok {
			return m, true
		}
	}
	return nil, false
}

// solveGround decides a disjunction-free context by constructing a model:
// greedy assignment over classes, smallest domain first, honoring
// disequalities, with bounded backtracking (exact for all practically
// occurring constraint graphs; pathological pigeonhole instances could in
// principle exceed the budget and be reported unsatisfiable).
func (c *Context) solveGround(wantModel bool, salt uint64) (map[expr.SymID]uint64, bool) {
	roots := make(map[expr.SymID]*classInfo)
	// Materialize all classes (iterate deterministic order for stable
	// models): every symbol seen is a union-find key, a domain key or both.
	syms := make([]expr.SymID, 0, c.uf.Len()+c.domains.Len())
	c.uf.Range(func(s expr.SymID, _ ufEntry) bool {
		syms = append(syms, s)
		return true
	})
	c.domains.Range(func(s expr.SymID, _ *IntervalSet) bool {
		syms = append(syms, s)
		return true
	})
	slices.Sort(syms)
	syms = slices.Compact(syms)
	for _, s := range syms {
		r, _ := c.root(s)
		if _, ok := roots[r]; !ok {
			w := c.widthOf(r)
			d := c.domainOf(r, w)
			if d.isEmpty() {
				return nil, false
			}
			roots[r] = &classInfo{root: r, width: w, dom: d}
		}
	}
	res := c.residue()
	// Canonicalize disequalities onto roots.
	for _, d := range res.diseqs {
		w := c.widthOf(d.a)
		m := expr.Mask(w)
		ra, oa := c.root(d.a)
		rb, ob := c.root(d.b)
		off := (ob + d.off - oa) & m // value(ra) != value(rb) + off
		if ra == rb {
			if off == 0 {
				return nil, false
			}
			continue
		}
		cd := diseq{a: ra, b: rb, off: off}
		roots[ra].diseqs = append(roots[ra].diseqs, cd)
		roots[rb].diseqs = append(roots[rb].diseqs, cd)
	}
	// Residual ordering comparisons: prune via interval hulls until no
	// domain moves, so a chain of orderings narrows each class it crosses;
	// the passes are bounded, as tightening around a cycle of orderings may
	// move a bound by one value a pass. Then hand each cross-class one to
	// its classes for the search (a same-class one applyRel decides
	// exactly).
	for pass, moved := 0, true; moved && pass < maxRelPasses; pass++ {
		moved = false
		for _, rel := range res.rels {
			ok, m := c.applyRel(roots, rel)
			if !ok {
				return nil, false
			}
			moved = moved || m
		}
	}
	for _, rel := range res.rels {
		ra, oa := c.root(rel.a)
		rb, ob := c.root(rel.b)
		if ra == rb {
			continue
		}
		cr := relCmp{op: rel.op, a: ra, b: rb, aAdd: oa + rel.aAdd, bAdd: ob + rel.bAdd, width: rel.width}
		roots[ra].rels = append(roots[ra].rels, cr)
		roots[rb].rels = append(roots[rb].rels, cr)
	}
	order := make([]*classInfo, 0, len(roots))
	for _, ci := range roots {
		order = append(order, ci)
	}
	sort.Slice(order, func(i, j int) bool {
		si, sj := order[i].dom.Size(), order[j].dom.Size()
		if si != sj {
			return si < sj
		}
		return order[i].root < order[j].root
	})
	assign := make(map[expr.SymID]uint64, len(order))
	budget := 4096
	if !assignClasses(order, roots, 0, assign, &budget, salt) {
		// Salted ranks can spend the budget on values minimum-first never
		// tries (an ordering between two classes that an unrelated class
		// sits between), so a diverse model falls back to the minimum-first
		// one: it answers as Sat does.
		if salt == 0 {
			return nil, false
		}
		budget = 4096
		if !assignClasses(order, roots, 0, assign, &budget, 0) {
			return nil, false
		}
	}
	if !wantModel {
		return nil, true
	}
	model := make(map[expr.SymID]uint64, len(syms))
	for _, s := range syms {
		r, off := c.root(s)
		model[s] = (assign[r] + off) & expr.Mask(c.widthOf(s))
	}
	return model, true
}

// maxRelPasses bounds solveGround's passes of hull pruning over the
// orderings.
const maxRelPasses = 64

// forward prunes, for the value v just assigned to ci, the domain of each
// unassigned class an ordering of ci relates it to, to the values that
// ordering allows with v (forward checking). It returns the domains it
// replaced, newest last, and false when one became empty: no value of that
// class fits the assignment.
func (ci *classInfo) forward(roots map[expr.SymID]*classInfo, assign map[expr.SymID]uint64, v uint64, saved []prunedDom) ([]prunedDom, bool) {
	for _, r := range ci.rels {
		m := expr.Mask(r.width)
		// With ci on one side at value v, the other side's term must stand
		// in op (flipped when ci is on the left) to c.
		other, op, add, c := r.b, r.op.Flip(), r.bAdd, (v+r.aAdd)&m
		if r.b == ci.root {
			other, op, add, c = r.a, r.op, r.aAdd, (v+r.bAdd)&m
		}
		if _, ok := assign[other]; ok {
			continue
		}
		o := roots[other]
		saved = append(saved, prunedDom{o, o.dom})
		o.dom = o.dom.intersect(fromCmp(op, c, r.width).shift(-add))
		if o.dom.isEmpty() {
			return saved, false
		}
	}
	return saved, true
}

// prunedDom is a class's domain as it stood before forward pruned it.
type prunedDom struct {
	ci  *classInfo
	dom *IntervalSet
}

// assignClasses assigns values to classes[idx:], backtracking on diseq
// conflicts within a global budget. Each assignment forward-checks the
// class's orderings (forward), so a later class only ever tries values
// that keep every ordering with the classes assigned before it. With salt
// == 0 candidates are tried minimum-first (boundary values); a nonzero
// salt starts each class at a per-class rank so unrelated classes receive
// distinct values.
func assignClasses(classes []*classInfo, roots map[expr.SymID]*classInfo, idx int, assign map[expr.SymID]uint64, budget *int, salt uint64) bool {
	if idx == len(classes) {
		return true
	}
	// The class with the fewest values left goes next (the first in
	// classes' order on a tie): forward pruning can leave one class a
	// single value, and trying it first spares the search every
	// combination of the unrelated classes in between. Only a class with
	// orderings is ever pruned; the others keep solveGround's order by
	// size, so classes[idx] is the smallest of them.
	next := idx
	for j := idx + 1; j < len(classes); j++ {
		if len(classes[j].rels) > 0 && classes[j].dom.Size() < classes[next].dom.Size() {
			next = j
		}
	}
	ci := classes[next]
	copy(classes[idx+1:next+1], classes[idx:next])
	classes[idx] = ci
	defer func() {
		copy(classes[idx:next], classes[idx+1:next+1])
		classes[next] = ci
	}()
	dom := ci.dom
	m := expr.Mask(ci.width)
	// Remove values conflicting with already-assigned neighbors.
	for _, d := range ci.diseqs {
		if d.a == ci.root {
			if bv, ok := assign[d.b]; ok {
				dom = dom.remove((bv + d.off) & m)
			}
		} else if d.b == ci.root {
			if av, ok := assign[d.a]; ok {
				dom = dom.remove((av - d.off) & m)
			}
		}
	}
	var saved []prunedDom
	// try assigns v and searches on; false with the budget spent or v
	// leading nowhere, the pruning undone either way.
	try := func(v uint64) bool {
		assign[ci.root] = v
		var ok bool
		saved, ok = ci.forward(roots, assign, v, saved[:0])
		if ok && assignClasses(classes, roots, idx+1, assign, budget, salt) {
			return true
		}
		for i := len(saved) - 1; i >= 0; i-- {
			saved[i].ci.dom = saved[i].dom
		}
		*budget--
		return false
	}
	if salt != 0 {
		if v, ok := valueAtRank(dom, (uint64(ci.root)*2654435761+salt)%dom.Size()); ok {
			if try(v) {
				return true
			}
			if *budget <= 0 {
				delete(assign, ci.root)
				return false
			}
		}
	}
	for _, iv := range dom.Intervals() {
		for v := iv.Lo; ; v++ {
			if try(v) {
				return true
			}
			if *budget <= 0 {
				delete(assign, ci.root)
				return false
			}
			if v == iv.Hi {
				break
			}
		}
	}
	delete(assign, ci.root)
	return false
}

// valueAtRank returns the rank-th smallest element of the set.
func valueAtRank(s *IntervalSet, rank uint64) (uint64, bool) {
	for _, iv := range s.Intervals() {
		n := iv.Hi - iv.Lo + 1
		if rank < n {
			return iv.Lo + rank, true
		}
		rank -= n
	}
	return 0, false
}

// applyRel prunes class domains using an ordering relation; ok is false
// when the relation is plainly unsatisfiable, and moved reports whether a
// domain shrank. Same-class relations are decided exactly; cross-class
// relations use hull checks and directional tightening.
func (c *Context) applyRel(roots map[expr.SymID]*classInfo, rel relCmp) (ok, moved bool) {
	w := rel.width
	m := expr.Mask(w)
	ra, oa := c.root(rel.a)
	rb, ob := c.root(rel.b)
	aAdd := (oa + rel.aAdd) & m
	bAdd := (ob + rel.bAdd) & m
	if ra == rb {
		sol := solveSelfRel(rel.op, aAdd, bAdd, roots[ra].dom, w)
		moved = !slices.Equal(sol.ivs, roots[ra].dom.ivs)
		roots[ra].dom = sol
		return !sol.isEmpty(), moved
	}
	da := roots[ra].dom.shift(aAdd)
	db := roots[rb].dom.shift(bAdd)
	aMin, _ := da.Min()
	aMax, _ := da.Max()
	bMin, _ := db.Min()
	bMax, _ := db.Max()
	// Unless the hulls refute the ordering, tighten each side against the
	// other's hull: a aOp aBound and b bOp bBound.
	var aOp, bOp expr.CmpOp
	var aBound, bBound uint64
	switch rel.op {
	case expr.Lt:
		if aMin >= bMax {
			return false, false
		}
		aOp, aBound, bOp, bBound = expr.Lt, bMax, expr.Gt, aMin
	case expr.Le:
		if aMin > bMax {
			return false, false
		}
		aOp, aBound, bOp, bBound = expr.Le, bMax, expr.Ge, aMin
	case expr.Gt:
		if aMax <= bMin {
			return false, false
		}
		aOp, aBound, bOp, bBound = expr.Gt, bMin, expr.Lt, aMax
	case expr.Ge:
		if aMax < bMin {
			return false, false
		}
		aOp, aBound, bOp, bBound = expr.Ge, bMin, expr.Le, aMax
	}
	na := roots[ra].dom.intersect(fromCmp(aOp, aBound, w).shift(-aAdd))
	nb := roots[rb].dom.intersect(fromCmp(bOp, bBound, w).shift(-bAdd))
	moved = !slices.Equal(na.ivs, roots[ra].dom.ivs) || !slices.Equal(nb.ivs, roots[rb].dom.ivs)
	roots[ra].dom, roots[rb].dom = na, nb
	return !na.isEmpty() && !nb.isEmpty(), moved
}

// solveSelfRel returns {x ∈ dom : (x+aAdd) op (x+bAdd)} under mod-2^w
// arithmetic.
func solveSelfRel(op expr.CmpOp, aAdd, bAdd uint64, dom *IntervalSet, w int) *IntervalSet {
	m := expr.Mask(w)
	d := (aAdd - bAdd) & m
	var uSol *IntervalSet
	if d == 0 {
		switch op {
		case expr.Le, expr.Ge:
			uSol = full(w)
		default:
			uSol = empty(w)
		}
	} else {
		// Let u = x + aAdd, v = u - d. If u >= d then v = u-d < u (u > v);
		// otherwise v wraps above u (u < v). Since d != 0, u == v never holds.
		gt := fromRange(d, m, w)
		lt := fromRange(0, d-1, w)
		switch op {
		case expr.Lt, expr.Le:
			uSol = lt
		case expr.Gt, expr.Ge:
			uSol = gt
		default:
			uSol = empty(w)
		}
	}
	return dom.intersect(uSol.shift(-aAdd))
}
