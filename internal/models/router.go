package models

import (
	"fmt"

	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// GroupRoutes splits compiled routes by output port, preserving the
// most-specific-first order within each port — the grouping the Egress
// style's per-port guards are built from.
func GroupRoutes(cs []tables.CompiledRoute) map[int][]tables.CompiledRoute {
	return groupRoutes(cs)
}

// Router installs an IP longest-prefix-match router model onto e.
//
// Basic: one If per prefix, most-specific first (branching factor = number
// of prefixes — the naive model the paper shows is intractable for core
// routers).
//
// Ingress: per-port If-chain where each route carries "!more_specific &
// prefix" exclusion constraints so grouping preserves LPM semantics.
//
// Egress: fork to all used ports, with each output port constraining the
// disjunction of its routes (optimal branching AND minimal constraints —
// Table 2's winner).
//
// Ingress and Egress write each port's disjunction as a sefl.Table on IPDst.
func Router(e *core.Element, fib tables.FIB, style Style) error {
	ports := fib.Ports()
	if err := CheckTable(e, "router", ports); err != nil {
		return err
	}
	compiled := tables.CompileLPM(fib)
	switch style {
	case Basic:
		dst := sefl.Ref{LV: sefl.IPDst}
		// compiled is sorted most-specific-first; ordered Ifs implement LPM
		// without exclusion constraints, at the cost of per-prefix branching.
		code := sefl.Instr(sefl.Fail{Msg: "no route"})
		for i := len(compiled) - 1; i >= 0; i-- {
			r := compiled[i]
			code = sefl.If{
				C:    sefl.Prefix{E: dst, Value: r.Prefix, Len: r.Len},
				Then: sefl.Forward{Port: r.Port},
				Else: code,
			}
		}
		e.SetInCode(core.WildcardPort, code)
	case Ingress:
		perPort := groupRoutes(compiled)
		code := sefl.Instr(sefl.Fail{Msg: "no route"})
		for i := len(ports) - 1; i >= 0; i-- {
			p := ports[i]
			code = sefl.If{
				C:    routeTable(perPort[p]),
				Then: sefl.Forward{Port: p},
				Else: code,
			}
		}
		e.SetInCode(core.WildcardPort, code)
	case Egress:
		perPort := groupRoutes(compiled)
		e.SetInCode(core.WildcardPort, sefl.Fork{Ports: ports})
		for _, p := range ports {
			e.SetOutCode(p, sefl.Constrain{C: routeTable(perPort[p])})
		}
	default:
		return fmt.Errorf("models: unknown router style %v", style)
	}
	return nil
}

// RouterEgressGuard returns the output-port guard instruction the Egress
// router style installs for one port's compiled routes — exported so an
// incremental updater can rebuild a single port's guard after a FIB delta
// without re-running the whole model construction.
func RouterEgressGuard(rs []tables.CompiledRoute) sefl.Constrain {
	return sefl.Constrain{C: routeTable(rs)}
}

// groupRoutes splits compiled routes by output port, preserving the
// most-specific-first order within each port (counted, then filled: the
// groups are slices of one array).
func groupRoutes(cs []tables.CompiledRoute) map[int][]tables.CompiledRoute {
	n := make(map[int]int)
	for i := range cs {
		n[cs[i].Port]++
	}
	all := make([]tables.CompiledRoute, len(cs))
	out := make(map[int][]tables.CompiledRoute, len(n))
	at := 0
	for i := range cs {
		p := cs[i].Port
		if _, ok := out[p]; !ok {
			out[p] = all[at : at : at+n[p]]
			at += n[p]
		}
		out[p] = append(out[p], cs[i])
	}
	return out
}

// routeTable is one port's routes as a table on IPDst: a prefix row per
// route, in CompileLPM order, minus its exclusions. The rows are one array
// and so are the exclusions.
func routeTable(rs []tables.CompiledRoute) sefl.Table {
	n := 0
	for i := range rs {
		n += len(rs[i].Exclusions)
	}
	excl := make([]expr.GuardExcl, 0, n)
	rows := make([]expr.GuardRow, len(rs))
	for i, r := range rs {
		rows[i] = expr.GuardRow{Kind: expr.GuardPrefix, V: r.Prefix, Len: r.Len}
		if len(r.Exclusions) == 0 {
			continue
		}
		from := len(excl)
		for _, ex := range r.Exclusions {
			excl = append(excl, expr.GuardExcl{V: ex.Prefix, Len: ex.Len})
		}
		rows[i].Excl = excl[from:len(excl):len(excl)]
	}
	return sefl.Table{F: sefl.IPDst, Rows: rows}
}
