package prog

import (
	"fmt"
	"reflect"
	"testing"

	"symnet/internal/expr"
	"symnet/internal/sefl"
)

func patchMACGuard(macs []uint64) sefl.Constrain {
	rows := make([]itRow, len(macs))
	for i, m := range macs {
		rows[i] = itRow{Kind: itEq, V: m}
	}
	return sefl.Constrain{C: sefl.Table{F: sefl.EtherDst, Rows: rows}}
}

type patchPrefixRow struct {
	v    uint64
	len  int
	excl []expr.GuardExcl
}

func patchPrefixGuard(rows []patchPrefixRow) sefl.Constrain {
	its := make([]itRow, len(rows))
	for i, r := range rows {
		its[i] = itRow{Kind: itPrefix, V: r.v, Len: r.len, Excl: r.excl}
	}
	return sefl.Constrain{C: sefl.Table{F: sefl.IPDst, Rows: its}}
}

func guardNode(t *testing.T, p *Program) *cCond {
	t.Helper()
	var node *cCond
	forEachCond(p, func(cc *cCond) {
		if cc.Kind == cIntervalTable {
			node = cc
		}
	})
	if node == nil {
		t.Fatal("no lowered guard in program")
	}
	return node
}

func constrainIns(p *Program) sefl.Instr {
	for _, op := range p.Ops {
		if op.Kind == OpConstrain {
			return op.Ins
		}
	}
	return nil
}

// deepEqualCond is structural equality across two programs' hash-consing
// domains (equalCCond compares children by pointer, which only works within
// one compile). Node fingerprints cover the leaf expressions.
func deepEqualCond(a, b *cCond) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.FP != b.FP || a.HasStatic != b.HasStatic ||
		a.StaticErr != b.StaticErr {
		return false
	}
	if a.Op != b.Op || a.Val != b.Val || a.Mask != b.Mask ||
		a.PLen != b.PLen || a.PW != b.PW || a.B != b.B || a.Key != b.Key {
		return false
	}
	if (a.IT == nil) != (b.IT == nil) || a.IT != nil && (a.IT.F != b.IT.F ||
		!reflect.DeepEqual(a.IT.Rows, b.IT.Rows) || !tablesEqual(a.IT.Table, b.IT.Table)) {
		return false
	}
	if len(a.Cs) != len(b.Cs) {
		return false
	}
	for i := range a.Cs {
		if !deepEqualCond(a.Cs[i], b.Cs[i]) {
			return false
		}
	}
	return deepEqualCond(a.C, b.C)
}

// requireSameAsFresh pins the core patching contract: after PatchGuard the
// program's guard node must be indistinguishable from a fresh compile of the
// updated guard — structure, fingerprints, derived state, and the rendered
// source instruction.
func requireSameAsFresh(t *testing.T, patched *Program, freshGuard sefl.Instr) {
	t.Helper()
	fresh := Compile(freshGuard, "el", 0, "el.out[1]")
	pn, fn := guardNode(t, patched), guardNode(t, fresh)
	if pn.FP != fn.FP {
		t.Fatalf("node fingerprint mismatch: %v vs %v", pn.FP, fn.FP)
	}
	if !tablesEqual(pn.IT.Table, fn.IT.Table) || pn.IT.Table.Fp() != fn.IT.Table.Fp() {
		t.Fatalf("table mismatch: %v (fp %v) vs %v (fp %v)",
			pn.IT.Table, pn.IT.Table.Fp(), fn.IT.Table, fn.IT.Table.Fp())
	}
	if !deepEqualCond(pn, fn) {
		t.Fatal("patched guard node not structurally equal to fresh compile")
	}
	if got, want := fmt.Sprint(constrainIns(patched)), fmt.Sprint(constrainIns(fresh)); got != want {
		t.Fatalf("rendered instruction mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestPatchGuardMACInsert(t *testing.T) {
	macs := []uint64{0x10, 0x20, 0x30, 0x40, 0x50}
	p := Compile(patchMACGuard(macs), "el", 0, "el.out[1]")
	oldFp := guardNode(t, p).IT.Table.Fp()

	newGuard := patchMACGuard([]uint64{0x10, 0x20, 0x25, 0x30, 0x40, 0x50})
	if n := PatchGuard(p, oldFp, newGuard); n != 1 {
		t.Fatalf("PatchGuard patched %d nodes, want 1", n)
	}
	requireSameAsFresh(t, p, newGuard)

	// The old table fingerprint no longer matches anything.
	if n := PatchGuard(p, oldFp, newGuard); n != 0 {
		t.Fatalf("stale-fp patch matched %d nodes, want 0", n)
	}
}

func TestPatchGuardPrefixDeleteWithExclusions(t *testing.T) {
	oldRows := []patchPrefixRow{
		{v: 0x0A000000, len: 8, excl: []expr.GuardExcl{{V: 0x0A010000, Len: 16}}},
		{v: 0x0A010000, len: 16},
		{v: 0x14000000, len: 8},
		{v: 0x1E000000, len: 8},
		{v: 0x28000000, len: 8},
	}
	p := Compile(patchPrefixGuard(oldRows), "el", 0, "el.out[1]")
	oldFp := guardNode(t, p).IT.Table.Fp()

	// Delete the 10.1/16 route: the containing /8 loses its exclusion, so
	// the deleted prefix's addresses are now covered by the /8.
	newGuard := patchPrefixGuard([]patchPrefixRow{
		{v: 0x0A000000, len: 8},
		{v: 0x14000000, len: 8},
		{v: 0x1E000000, len: 8},
		{v: 0x28000000, len: 8},
	})
	if n := PatchGuard(p, oldFp, newGuard); n != 1 {
		t.Fatalf("PatchGuard patched %d nodes, want 1", n)
	}
	requireSameAsFresh(t, p, newGuard)
	if node := guardNode(t, p); !node.IT.Table.Contains(0x0A010203) {
		t.Fatalf("patched table %v misses the deleted route's addresses", node.IT.Table)
	}
}

func TestGuardTables(t *testing.T) {
	p := Compile(patchMACGuard([]uint64{1, 2, 3, 4}), "el", 0, "el.out[0]")
	its := GuardTables(p)
	if len(its) != 1 || its[0].Table == nil {
		t.Fatalf("GuardTables returned %d tables", len(its))
	}
	if its[0].Table.Fp() != guardNode(t, p).IT.Table.Fp() {
		t.Fatal("GuardTables returned a different table than the guard node")
	}
}
