package core

import (
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// PortTable renders the ports n minted, indexed by ID, and its link table:
// links[id] is the ID of the input port linked to output port id, or -1.
func PortTable(n *Network) (ports []PortRef, links []int) {
	ports = make([]PortRef, len(n.links))
	for _, e := range n.order {
		for i := range e.ports {
			ports[e.ports[i].id] = e.ports[i].ref()
		}
	}
	links = make([]int, len(n.links))
	for id, to := range n.links {
		links[id] = -1
		if to != nil {
			links[id] = int(to.id)
		}
	}
	return ports, links
}

// PortIDOf returns the ID n minted for ref, a port or a wildcard entry, or
// -1 when n lacks it.
func PortIDOf(n *Network, ref PortRef) int {
	if e, ok := n.elems[ref.Elem]; ok {
		if p := e.at(ref.Port, ref.Out); p != nil {
			return int(p.id)
		}
	}
	return -1
}

// CyclePorts lists the ports loop detection records visits at (see
// Network.onCycle), by ID.
func CyclePorts(n *Network) []PortRef {
	marks := n.onCycle()
	var out []PortRef
	for _, e := range n.order {
		for i := range e.ports {
			if p := &e.ports[i]; int(p.id) < len(marks) && marks[p.id] {
				out = append(out, p.ref())
			}
		}
	}
	return out
}

// LoopCheckReplay runs the walk Run would from inject, keeping each state
// as step takes it, with the loop-detection snapshots it then carried. The
// returned replay runs loopCheck on every kept state again, from those
// snapshots, and counts the visits it recorded and those it compared with
// an earlier snapshot at the same port.
func LoopCheckReplay(net *Network, inject PortRef, init sefl.Instr, opts Options) (replay func() (recorded, compared int), err error) {
	r, err := newRun(net, inject, init, opts)
	if err != nil {
		return nil, err
	}
	type visit struct {
		st   *state
		seen *snapshot
	}
	var visits []visit
	r.stack = r.runInjection(r.stack[:0], r.stack[0])
	for len(r.stack) > 0 {
		st := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		visits = append(visits, visit{st.clone(), st.seen})
		r.stack = r.step(r.stack, st)
	}
	return func() (recorded, compared int) {
		for _, v := range visits {
			for s := v.seen; s != nil; s = s.prev {
				if s.at == v.st.Here {
					compared++
					break
				}
			}
			v.st.seen = v.seen
			if !r.loopCheck(v.st) && v.st.seen != v.seen {
				recorded++
			}
		}
		return recorded, compared
	}, nil
}

// Kept returns the solver context p keeps: its own, or, when its output
// port's guard refuted its departure (refuted), the departing context it
// shares with that departure's other refuted ports.
func Kept(p *Path) (ctx *solver.Context, refuted bool) { return p.ctx, p.guard != nil }

// InjectedPacket reports the code in n's injection slot and whether the slot
// holds the packet that code builds (nil, false: the slot is empty).
func InjectedPacket(n *Network) (src sefl.Instr, shared bool) {
	c := n.injected.Load()
	if c == nil {
		return nil, false
	}
	return c.src, c.pkt.Load() != nil
}
