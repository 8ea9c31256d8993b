package prog

// In-place guard patching for rule churn.
//
// A compiled program is normally immutable; an incremental verification
// service is the sanctioned exception. When one forwarding rule changes, the
// only part of an egress-style port program that changes is its lowered
// guard's interval table — the Fork list, segments, and every other op are
// untouched. PatchGuard swaps the affected guard node's payload in place
// (between runs: callers must guarantee no exploration is executing the
// program) for the one the new guard lowers to, through the helper Compile
// lowers through (lowerTable), and recomputes everything the compiler
// derives from it, so the patched program is indistinguishable from a fresh
// compile of the new guard by construction: same rows, span table and node
// fingerprint, and the same lazily-rendered source instruction for traces
// and failure messages.

import (
	"symnet/internal/expr"
	"symnet/internal/sefl"
)

// forEachCond visits every distinct condition node reachable from the
// program's ops (conditions are hash-consed, so shared nodes visit once).
func forEachCond(p *Program, fn func(*cCond)) {
	seen := make(map[*cCond]bool)
	var walk func(cc *cCond)
	walk = func(cc *cCond) {
		if cc == nil || seen[cc] {
			return
		}
		seen[cc] = true
		fn(cc)
		for _, sub := range cc.Cs {
			walk(sub)
		}
		walk(cc.C)
	}
	for i := range p.Ops {
		walk(p.Ops[i].C)
	}
}

// GuardTables returns the payload of every lowered guard node in the
// program, deduplicated, in op order. An incremental service uses it to map
// each (element, port) program to the table fingerprints it depends on.
func GuardTables(p *Program) []*ITable {
	var out []*ITable
	forEachCond(p, func(cc *cCond) {
		if cc.Kind == cIntervalTable && cc.IT != nil {
			out = append(out, cc.IT)
		}
	})
	return out
}

// PatchGuard replaces, in place, every lowered guard node of p whose span
// table has fingerprint oldFp with the node guard's table lowers to, and
// returns the number of nodes patched: 0 when none carries oldFp, or when
// guard is not a table guard that lowers (the caller recompiles instead).
// The program must not be executing concurrently. Each patched node's
// fingerprint is recomputed from the new table, every OpConstrain it guards
// renders guard, and the program's cached renders go.
func PatchGuard(p *Program, oldFp expr.Fp, guard sefl.Constrain) int {
	tb, ok := guard.C.(sefl.Table)
	if !ok {
		return 0
	}
	it := lowerTable(tb)
	if it == nil {
		return 0
	}
	patched := make(map[*cCond]bool)
	forEachCond(p, func(cc *cCond) {
		if cc.Kind != cIntervalTable || cc.IT == nil || cc.IT.Table.Fp() != oldFp {
			return
		}
		cc.IT = it
		cc.FP = fpCond(cc)
		patched[cc] = true
	})
	if len(patched) == 0 {
		return 0
	}
	for i := range p.Ops {
		if op := &p.Ops[i]; op.Kind == OpConstrain && patched[op.C] {
			op.Ins = guard
		}
	}
	p.renders.Store(nil) // they print the old guard
	return len(patched)
}
