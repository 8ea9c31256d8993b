package models

import (
	"fmt"

	"symnet/internal/core"
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
// Table 2's winner). RouterEgress builds that code.
//
// Ingress and Egress write each port's disjunction as a sefl.Table on IPDst,
// whose rows and span table are tables.LPMRows' for that port.
func Router(e *core.Element, fib tables.FIB, style Style) error {
	c, err := RouterEgress(e, fib)
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
		e.SetInCode(core.WildcardPort, c.ifChain("no route"))
	case Egress:
		c.Install(e)
	default:
		return fmt.Errorf("models: unknown router style %v", style)
	}
	return nil
}

// RouterEgress builds the Egress router code for fib on e, refusing a FIB
// Router cannot model: too many routes, a row that is not a masked IPv4
// prefix to a port, or a table CheckTable refuses. Each used port's guard is
// a sefl.Table on IPDst whose rows and span table are tables.LPMRows' for
// that port (one sweep of the FIB).
func RouterEgress(e *core.Element, fib tables.FIB) (EgressCode, error) {
	if len(fib) > tables.MaxRoutes {
		return EgressCode{}, fmt.Errorf("models: router %s: %d routes, more than the %d CompileLPM takes", e.Name, len(fib), tables.MaxRoutes)
	}
	for i, r := range fib {
		if !r.Valid() {
			return EgressCode{}, fmt.Errorf("models: router %s: route %d (prefix %#x, len %d, port %d) is not a masked IPv4 prefix to a port",
				e.Name, i, r.Prefix, r.Len, r.Port)
		}
	}
	ports, err := usedPorts(e, "router", len(fib), func(i int) int { return fib[i].Port })
	if err != nil {
		return EgressCode{}, err
	}
	rows, spans := tables.LPMRows(fib, e.NumOut)
	return egressCode(ports, func(p int) sefl.Table {
		return sefl.Table{F: sefl.IPDst, Rows: rows[p], Spans: spans[p]}
	}), nil
}
