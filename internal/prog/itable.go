package prog

// Interval-table lowering of table guards.
//
// The egress switch/router models of the paper re-assert, at every output
// port, a guard spanning the whole forwarding table: "EtherDst == MAC1 |
// MAC2 | ..." or "IPDst in P1 | (P2 & !more-specific) | ...". The models
// write it as a sefl.Table, one row per entry, and the compiler lowers every
// well-formed table, whatever its size, to a cIntervalTable node holding the
// field and the table's span table (sefl.Table.SpanTable: the one a router's
// table carries from tables.LPMRows's sweep, else the rows merged), so each
// visit costs one field read plus one packed-set assertion (expr.InSet)
// instead of an Or-tree the solver compresses to the same set on every
// visit. A fleet member's decoded table carries rows only and merges the
// same span table. A malformed table compiles to a static error. A
// hand-written Or stays an Or-tree: nothing parses trees back into rows.
//
// The field and the span table are the whole node: evaluation reads the
// span table, and the IR dump, a trace line and a refuted guard's failure
// message (UnsatMsg) print it. The Or-tree the rows stand for (Table.Or) is
// the reference semantics the AST interpreter and the differential suites
// evaluate; the compiled program never builds it.

import (
	"fmt"

	"symnet/internal/sefl"
)

// UnsatMsg is the failure message of a Constrain on c that the path's
// context refutes, in both executors: the condition as it renders. A table
// guard renders as its field and its span table, which is the value set the
// guard means, so tables with equal span tables fail with one message, and
// SpanTable.String bounds its length. A malformed table never gets here: it
// fails with Table.Check's error.
func UnsatMsg(c sefl.Cond) string {
	return fmt.Sprintf("constraint unsatisfiable: %s", c)
}

// GuardTables returns the payload of every lowered guard node in the
// program, in op order: one per occurrence, since no two ops share a node.
// Tests read it to compare a port's compiled guard with a fresh build of its
// rows.
func GuardTables(p *Program) []*ITable {
	var out []*ITable
	var walk func(cc *cCond)
	walk = func(cc *cCond) {
		if cc == nil {
			return
		}
		if cc.Kind == cIntervalTable && cc.IT != nil {
			out = append(out, cc.IT)
		}
		for _, sub := range cc.Cs {
			walk(sub)
		}
		walk(cc.C)
	}
	for i := range p.Ops {
		walk(p.Ops[i].C)
	}
	return out
}
