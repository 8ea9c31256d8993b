package prog

// In-place guard patching for rule churn.
//
// A compiled program is normally immutable; an incremental verification
// service is the sanctioned exception. When one forwarding rule changes, the
// only part of an egress-style port program that changes is its lowered
// guard's interval table — the Fork list, segments, and every other op are
// untouched. PatchGuard swaps the table of the affected guard node in place
// (between runs: callers must guarantee no exploration is executing the
// program) and recomputes everything the compiler derives from it, so the
// patched program is indistinguishable from a fresh compile of the updated
// guard: same table fingerprint (the caller built the new table with
// expr.SpanTable patching, whose canonical form is construction-order
// independent), same node fingerprint and derived state (all computed
// from the new rows; the Or-tree view of the old rows goes with the old
// table and the new one is built if and when somebody asks), and the same
// lazily-rendered source instruction for traces and failure messages.

import (
	"symnet/internal/expr"
	"symnet/internal/sefl"
)

// PatchSpec describes one guard-table replacement inside a compiled program.
type PatchSpec struct {
	// OldFp is the fingerprint of the span table being replaced; every
	// lowered guard currently carrying it is patched.
	OldFp expr.Fp
	// Rows is the guard's new row list, in the order a fresh model build
	// would emit (table order for MACs, CompileLPM order for routes) — the
	// node fingerprint and the Or-tree view must match a from-scratch
	// compile exactly.
	Rows []ITRow
	// Table is the new merged span table, typically produced by patching the
	// old one (expr.SpanTable.PatchWindow) rather than re-merging all rows.
	Table *expr.SpanTable
	// Ins is the rebuilt source instruction (e.g. models.SwitchEgressGuard).
	// Trace lines and constraint-failure messages render the op's original
	// instruction lazily, so every OpConstrain whose guard is patched must
	// have its Ins replaced or resident traces would show the stale rules.
	Ins sefl.Instr
}

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

// RowSolutionSet returns one guard row's solution set over a w-bit field as
// ascending disjoint spans — the same sweep lowering merges into the span
// table. Exported so delta application can compute a changed rule's
// replacement spans without re-merging the whole table.
func RowSolutionSet(r ITRow, w int) []expr.Span {
	var scratch []expr.Span
	return appendRowSpans(nil, &r, w, &scratch)
}

// PatchGuard applies spec to p in place, returning the number of guard nodes
// patched (0 when no lowered guard carries spec.OldFp). The program must not
// be executing concurrently. For each matched node it installs the
// new rows and table, recomputes from the rows the node fingerprint and
// derived state, and swaps the rendered source instruction on every
// OpConstrain guarded by the node; the program's cached renders go with it.
func PatchGuard(p *Program, spec PatchSpec) int {
	patched := make(map[*cCond]bool)
	forEachCond(p, func(cc *cCond) {
		if cc.Kind != cIntervalTable || cc.IT == nil {
			return
		}
		if cc.IT.Table == nil || cc.IT.Table.Fp() != spec.OldFp {
			return
		}
		cc.IT = &ITable{F: cc.IT.F, W: cc.IT.W, Rows: spec.Rows, Table: spec.Table}
		cc.FP = fpCond(cc)
		finishCond(cc)
		patched[cc] = true
	})
	if len(patched) == 0 {
		return 0
	}
	if spec.Ins != nil {
		for i := range p.Ops {
			op := &p.Ops[i]
			if op.Kind == OpConstrain && patched[op.C] {
				op.Ins = spec.Ins
			}
		}
	}
	p.renders.Store(nil) // they print the old guard
	return len(patched)
}
