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
// style's per-port guards are built from. The result is indexed by port.
func GroupRoutes(cs []tables.CompiledRoute) [][]tables.CompiledRoute {
	top := -1
	for i := range cs {
		top = max(top, cs[i].Port)
	}
	return groupRoutes(cs, top+1)
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
	if len(fib) > tables.MaxRoutes {
		return fmt.Errorf("models: router %s: %d routes, more than the %d CompileLPM takes", e.Name, len(fib), tables.MaxRoutes)
	}
	for i, r := range fib {
		if !r.Valid() {
			return fmt.Errorf("models: router %s: route %d (prefix %#x, len %d, port %d) is not a masked IPv4 prefix to a port",
				e.Name, i, r.Prefix, r.Len, r.Port)
		}
	}
	ports, err := usedPorts(e, "router", len(fib), func(i int) int { return fib[i].Port })
	if err != nil {
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
		perPort := groupRoutes(compiled, e.NumOut)
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
		perPort := groupRoutes(compiled, e.NumOut)
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
// groups are slices of one array). Ports are below nports, so the counts and
// the groups are indexed by port.
func groupRoutes(cs []tables.CompiledRoute, nports int) [][]tables.CompiledRoute {
	n := make([]int, nports)
	for i := range cs {
		n[cs[i].Port]++
	}
	all := make([]tables.CompiledRoute, len(cs))
	out := make([][]tables.CompiledRoute, nports)
	at := 0
	for p, k := range n {
		out[p] = all[at : at : at+k]
		at += k
	}
	for i := range cs {
		p := cs[i].Port
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
