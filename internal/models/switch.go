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
// the paper's ingress model. SwitchEgress builds the Egress style's code.
func Switch(e *core.Element, t tables.MACTable, style Style) error {
	c, err := SwitchEgress(e, t)
	if err != nil {
		return err
	}
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
		e.SetInCode(core.WildcardPort, c.ifChain("Mac unknown"))
	case Egress:
		c.Install(e)
	default:
		return fmt.Errorf("models: unknown switch style %v", style)
	}
	return nil
}

// SwitchEgress builds the Egress switch code for t on e, refusing a table
// Switch cannot model: an entry that is not a 48-bit MAC to a port, or a
// table CheckTable refuses. Each used port's guard is a table on EtherDst
// with an equality row per MAC the port learned, in ascending order.
func SwitchEgress(e *core.Element, t tables.MACTable) (EgressCode, error) {
	for i, m := range t {
		if !m.Valid() {
			return EgressCode{}, fmt.Errorf("models: switch %s: entry %d (mac %#x, vlan %d, port %d) is not a 48-bit MAC to a port",
				e.Name, i, m.MAC, m.VLAN, m.Port)
		}
	}
	ports, err := usedPorts(e, "switch", len(t), func(i int) int { return t[i].Port })
	if err != nil {
		return EgressCode{}, err
	}
	byPort := t.ByPort()
	return egressCode(ports, func(p int) sefl.Table { return macTable(byPort[p]) }), nil
}

// EgressCode is the code the Egress style writes on a router or switch: a
// Fork on in[*] to the table's sorted output ports and, on each of those
// ports, a table guard (Guards[i] is out[Fork.Ports[i]]'s). RouterEgress and
// SwitchEgress are the one place it is built: Router and Switch install it
// whole, and an incremental updater installs the parts that differ from the
// element's code.
type EgressCode struct {
	Fork   sefl.Fork
	Guards []sefl.Constrain
}

// egressCode is the Egress code over ports whose guards are table(p).
func egressCode(ports []int, table func(p int) sefl.Table) EgressCode {
	c := EgressCode{Fork: sefl.Fork{Ports: ports}, Guards: make([]sefl.Constrain, len(ports))}
	for i, p := range ports {
		c.Guards[i] = sefl.Constrain{C: table(p)}
	}
	return c
}

// ifChain is the Ingress style's in[*] code over the same guards: an If per
// port, in port order, forwarding where its guard holds, and failing with
// msg past the last.
func (c *EgressCode) ifChain(msg string) sefl.Instr {
	code := sefl.Instr(sefl.Fail{Msg: msg})
	for i := len(c.Guards) - 1; i >= 0; i-- {
		code = sefl.If{C: c.Guards[i].C, Then: sefl.Forward{Port: c.Fork.Ports[i]}, Else: code}
	}
	return code
}

// Install writes the code onto e: the Fork on in[*], each guard on its port.
func (c *EgressCode) Install(e *core.Element) {
	e.SetInCode(core.WildcardPort, c.Fork)
	for i, p := range c.Fork.Ports {
		e.SetOutCode(p, c.Guards[i])
	}
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

// macTable is one port's sorted MACs as a table on EtherDst, an equality
// row each.
func macTable(macs []uint64) sefl.Table {
	rows := make([]expr.GuardRow, len(macs))
	for i, m := range macs {
		rows[i] = expr.GuardRow{Kind: expr.GuardEq, V: m}
	}
	return sefl.Table{F: sefl.EtherDst, Rows: rows}
}
