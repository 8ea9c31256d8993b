package models

import (
	"fmt"

	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

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
// Ingress and Egress write each port's disjunction as a sefl.Table on IPDst,
// whose rows and span table are tables.LPMRows' for that port.
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
	switch style {
	case Basic:
		dst := sefl.Ref{LV: sefl.IPDst}
		// compiled is sorted most-specific-first; ordered Ifs implement LPM
		// without exclusion constraints, at the cost of per-prefix branching.
		compiled := tables.CompileLPM(fib)
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
		rows, spans := tables.LPMRows(fib, e.NumOut)
		code := sefl.Instr(sefl.Fail{Msg: "no route"})
		for i := len(ports) - 1; i >= 0; i-- {
			p := ports[i]
			code = sefl.If{
				C:    sefl.Table{F: sefl.IPDst, Rows: rows[p], Spans: spans[p]},
				Then: sefl.Forward{Port: p},
				Else: code,
			}
		}
		e.SetInCode(core.WildcardPort, code)
	case Egress:
		rows, spans := tables.LPMRows(fib, e.NumOut)
		e.SetInCode(core.WildcardPort, sefl.Fork{Ports: ports})
		for _, p := range ports {
			e.SetOutCode(p, RouterEgressGuard(rows[p], spans[p]))
		}
	default:
		return fmt.Errorf("models: unknown router style %v", style)
	}
	return nil
}

// RouterEgressGuard returns the output-port guard instruction the Egress
// router style installs for one port's tables.LPMRows rows and span table —
// exported so an incremental updater rebuilds a single port's guard after a
// FIB delta as the whole model construction would.
func RouterEgressGuard(rows []expr.GuardRow, spans *expr.SpanTable) sefl.Constrain {
	return sefl.Constrain{C: sefl.Table{F: sefl.IPDst, Rows: rows, Spans: spans}}
}
