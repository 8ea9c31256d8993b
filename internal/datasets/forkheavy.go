package datasets

import (
	"fmt"

	"symnet/internal/core"
	"symnet/internal/sefl"
)

// ForkHeavy builds the fork-heavy state-replication workload the benchmark's
// forkheavy workload and the differential tests run:
// inject -> pre0..pre{prefix-1} -> f0..f{depth-1} -> sink, where each pre
// element adds one metadata binding plus one constraint (growing per-path
// state without branching) and each f element forks the packet through fan
// output ports. The workload isolates the cost of path replication and of
// per-instruction engine overhead: fan^depth paths each drag prefix metadata
// bindings and constraints through every fork.
func ForkHeavy(prefix, depth, fan int) (*core.Network, core.PortRef) {
	net := core.NewNetwork()
	for i := 0; i < prefix; i++ {
		e := net.AddElement(fmt.Sprintf("pre%d", i), "chain", 1, 1)
		m := sefl.Meta{Name: fmt.Sprintf("m%d", i)}
		e.SetInCode(0, sefl.Seq(
			sefl.Allocate{LV: m, Size: 32},
			sefl.Assign{LV: m, E: sefl.Symbolic{W: 32, Name: m.Name}},
			sefl.Constrain{C: sefl.Ge(sefl.Ref{LV: m}, sefl.C(uint64(i%7)))},
			sefl.Assign{LV: sefl.IPTTL, E: sefl.Sub{A: sefl.Ref{LV: sefl.IPTTL}, B: sefl.C(1)}},
			sefl.Forward{Port: 0},
		))
	}
	for i := 0; i < depth; i++ {
		e := net.AddElement(fmt.Sprintf("f%d", i), "fork", 1, fan)
		ports := make([]int, fan)
		for p := range ports {
			ports[p] = p
		}
		e.SetInCode(0, sefl.Seq(
			sefl.Constrain{C: sefl.Ne(sefl.Ref{LV: sefl.IPSrc}, sefl.C(uint64(i)))},
			sefl.Assign{LV: sefl.IPTTL, E: sefl.Sub{A: sefl.Ref{LV: sefl.IPTTL}, B: sefl.C(1)}},
			sefl.Fork{Ports: ports},
		))
	}
	sinkEl := net.AddElement("sink", "sink", 1, 0)
	sinkEl.SetInCode(0, sefl.NoOp{})
	hop := func(from string, to string) {
		net.MustLink(from, 0, to, 0)
	}
	for i := 0; i+1 < prefix; i++ {
		hop(fmt.Sprintf("pre%d", i), fmt.Sprintf("pre%d", i+1))
	}
	first := "sink"
	if depth > 0 {
		first = "f0"
	}
	if prefix > 0 {
		hop(fmt.Sprintf("pre%d", prefix-1), first)
	}
	for i := 0; i < depth; i++ {
		next := "sink"
		if i+1 < depth {
			next = fmt.Sprintf("f%d", i+1)
		}
		for p := 0; p < fan; p++ {
			net.MustLink(fmt.Sprintf("f%d", i), p, next, 0)
		}
	}
	inject := core.PortRef{Elem: "pre0", Port: 0}
	if prefix == 0 {
		inject = core.PortRef{Elem: first, Port: 0}
	}
	return net, inject
}
