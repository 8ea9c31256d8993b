package core

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
