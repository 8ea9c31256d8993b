package models

import (
	"fmt"

	"symnet/internal/core"
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
func Router(e *core.Element, fib tables.FIB, style Style) error {
	if len(fib) == 0 {
		return fmt.Errorf("models: router %s: empty FIB", e.Name)
	}
	ports := fib.Ports()
	if max := ports[len(ports)-1]; max >= e.NumOut {
		return fmt.Errorf("models: router %s: FIB uses port %d but element has %d output ports", e.Name, max, e.NumOut)
	}
	dst := sefl.Ref{LV: sefl.IPDst}
	compiled := tables.CompileLPM(fib)
	switch style {
	case Basic:
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
				C:    routeDisjunction(dst, perPort[p]),
				Then: sefl.Forward{Port: p},
				Else: code,
			}
		}
		e.SetInCode(core.WildcardPort, code)
	case Egress:
		perPort := groupRoutes(compiled)
		e.SetInCode(core.WildcardPort, sefl.Fork{Ports: ports})
		for _, p := range ports {
			e.SetOutCode(p, sefl.Constrain{C: routeDisjunction(dst, perPort[p])})
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
func RouterEgressGuard(rs []tables.CompiledRoute) sefl.Instr {
	return sefl.Constrain{C: routeDisjunction(sefl.Ref{LV: sefl.IPDst}, rs)}
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

// routeDisjunction builds OR over "prefix & !exclusion1 & !exclusion2 ..."
// for a port's routes. The conjunctions are slices of one array. Only a lone
// route without exclusions is returned bare: a port carrying just the
// default route still excludes every more-specific prefix, and as a
// one-row Or it lowers to a span table like any other port guard.
func routeDisjunction(dst sefl.Expr, rs []tables.CompiledRoute) sefl.Cond {
	terms := 0
	for i := range rs {
		if k := len(rs[i].Exclusions); k > 0 {
			terms += k + 1
		}
	}
	all := make([]sefl.Cond, 0, terms)
	cs := make([]sefl.Cond, len(rs))
	for i, r := range rs {
		match := sefl.Cond(sefl.Prefix{E: dst, Value: r.Prefix, Len: r.Len})
		if len(r.Exclusions) > 0 {
			from := len(all)
			all = append(all, match)
			for _, ex := range r.Exclusions {
				all = append(all, sefl.NotC(sefl.Prefix{E: dst, Value: ex.Prefix, Len: ex.Len}))
			}
			match = sefl.AndC(all[from:len(all):len(all)]...)
		}
		cs[i] = match
	}
	if len(rs) == 1 && len(rs[0].Exclusions) == 0 {
		return cs[0]
	}
	return sefl.OrC(cs...)
}
