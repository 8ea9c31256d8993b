// Package models generates SEFL models for standard network boxes: switches
// (three styles, §8.1), IP routers with longest-prefix-match compilation
// (§7), NATs, stateful firewalls, IP-in-IP tunnel endpoints, VLAN
// operations and encrypted tunnels. Each generator configures a
// core.Element's port code from parsed forwarding state.
package models

import (
	"fmt"

	"symnet/internal/core"
	"symnet/internal/expr"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// Style selects the switch/router model construction of the paper's
// evaluation (§8.1).
type Style int

const (
	// Basic is a lookup table with one If per entry — what a generic
	// symbolic-execution tool sees in forwarding code.
	Basic Style = iota
	// Ingress groups entries per output port and applies If-chains on the
	// input port: optimal path count, quadratic constraint growth.
	Ingress
	// Egress forks to all used ports and constrains on each output port:
	// optimal path count and minimal constraints.
	Egress
)

func (s Style) String() string {
	switch s {
	case Basic:
		return "basic"
	case Ingress:
		return "ingress"
	case Egress:
		return "egress"
	}
	return "unknown"
}

// Switch installs a MAC-learning switch model onto e using the given style.
// The element forwards on EtherDst; unknown MACs fail ("Mac unknown"), as in
// the paper's ingress model.
func Switch(e *core.Element, t tables.MACTable, style Style) error {
	for i, m := range t {
		if !m.Valid() {
			return fmt.Errorf("models: switch %s: entry %d (mac %#x, vlan %d, port %d) is not a 48-bit MAC to a port",
				e.Name, i, m.MAC, m.VLAN, m.Port)
		}
	}
	ports, err := usedPorts(e, "switch", len(t), func(i int) int { return t[i].Port })
	if err != nil {
		return err
	}
	byPort := t.ByPort()
	switch style {
	case Basic:
		ref := sefl.Ref{LV: sefl.EtherDst}
		// One If per table entry, most recently learned first is irrelevant
		// for MAC tables (no overlap), so keep table order.
		code := sefl.Instr(sefl.Fail{Msg: "Mac unknown"})
		for i := len(t) - 1; i >= 0; i-- {
			code = sefl.If{
				C:    sefl.Eq(ref, sefl.CW(t[i].MAC, sefl.MACWidth)),
				Then: sefl.Forward{Port: t[i].Port},
				Else: code,
			}
		}
		e.SetInCode(core.WildcardPort, code)
	case Ingress:
		code := sefl.Instr(sefl.Fail{Msg: "Mac unknown"})
		for i := len(ports) - 1; i >= 0; i-- {
			p := ports[i]
			code = sefl.If{
				C:    macTable(byPort[p]),
				Then: sefl.Forward{Port: p},
				Else: code,
			}
		}
		e.SetInCode(core.WildcardPort, code)
	case Egress:
		e.SetInCode(core.WildcardPort, sefl.Fork{Ports: ports})
		for _, p := range ports {
			e.SetOutCode(p, sefl.Constrain{C: macTable(byPort[p])})
		}
	default:
		return fmt.Errorf("models: unknown switch style %v", style)
	}
	return nil
}

// CheckTable returns the error Router or Switch gives for a table whose
// sorted output ports are ports: it has no entry, or it uses a port e
// lacks. kind names the model in the message.
func CheckTable(e *core.Element, kind string, ports []int) error {
	if len(ports) == 0 {
		return fmt.Errorf("models: %s %s: empty table", kind, e.Name)
	}
	if max := ports[len(ports)-1]; max >= e.NumOut {
		return fmt.Errorf("models: %s %s: table uses port %d but element has %d output ports", kind, e.Name, max, e.NumOut)
	}
	return nil
}

// usedPorts returns the sorted set of ports a table's n entries use — entry
// i's is port(i), not negative — with the error CheckTable gives for them.
// CheckTable bounds the ports by e.NumOut, so a slice indexed by port
// collects them; a port past it is reported, not collected.
func usedPorts(e *core.Element, kind string, n int, port func(int) int) ([]int, error) {
	used := make([]bool, e.NumOut)
	top, count := -1, 0
	for i := range n {
		p := port(i)
		top = max(top, p)
		if p < len(used) && !used[p] {
			used[p] = true
			count++
		}
	}
	ports := make([]int, 0, count+1)
	for p, u := range used {
		if u {
			ports = append(ports, p)
		}
	}
	if top >= e.NumOut {
		ports = append(ports, top)
	}
	return ports, CheckTable(e, kind, ports)
}

// SwitchEgressGuard returns the output-port guard instruction the Egress
// switch style installs for one port's sorted MAC list — exported so an
// incremental updater can rebuild a single port's guard after a MAC-table
// delta without re-running the whole model construction.
func SwitchEgressGuard(macs []uint64) sefl.Constrain {
	return sefl.Constrain{C: macTable(macs)}
}

// macTable is one port's sorted MACs as a table on EtherDst, an equality
// row each.
func macTable(macs []uint64) sefl.Table {
	rows := make([]expr.GuardRow, len(macs))
	for i, m := range macs {
		rows[i] = expr.GuardRow{Kind: expr.GuardEq, V: m}
	}
	return sefl.Table{F: sefl.EtherDst, Rows: rows}
}
