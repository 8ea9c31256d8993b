package datasets

import (
	"fmt"

	"symnet/internal/core"
	"symnet/internal/sefl"
)

// SatHeavy builds the satisfiability-cache workload: inject -> rule0 ..
// rule{rules-1} -> sink, where every rule element asserts a cross-field
// disjunction (IPSrc in one range OR IPDst in another). A disjunction over
// two distinct symbols cannot be compressed into a single symbol's interval
// set, so each one stays pending and the engine decides it with a full Sat
// check — the paper's "calls to the constraint solver" — at every subsequent
// guard.
//
// A batch of identical queries over this chain (the repair-and-verify shape:
// the same property re-checked per candidate change) replays identical
// assertion chains, so with a shared SatCache all but the first query answer
// every check from cache: exactly rules misses for the whole batch, and
// (queries-1) * rules hits when run sequentially. That makes the workload
// the natural probe for the cache telemetry (hit/miss counters) and for
// per-check latency histograms.
func SatHeavy(rules int) (*core.Network, core.PortRef) {
	net := core.NewNetwork()
	for i := 0; i < rules; i++ {
		e := net.AddElement(fmt.Sprintf("rule%d", i), "acl", 1, 1)
		e.SetInCode(0, sefl.Seq(
			sefl.Constrain{C: sefl.OrC(
				sefl.Ge(sefl.Ref{LV: sefl.IPSrc}, sefl.C(uint64(16*i))),
				sefl.Le(sefl.Ref{LV: sefl.IPDst}, sefl.C(uint64(1<<24+512*i))),
			)},
			sefl.Forward{Port: 0},
		))
	}
	sink := net.AddElement("sink", "sink", 1, 0)
	sink.SetInCode(0, sefl.NoOp{})
	for i := 0; i+1 < rules; i++ {
		net.MustLink(fmt.Sprintf("rule%d", i), 0, fmt.Sprintf("rule%d", i+1), 0)
	}
	first := "sink"
	if rules > 0 {
		net.MustLink(fmt.Sprintf("rule%d", rules-1), 0, "sink", 0)
		first = "rule0"
	}
	return net, core.PortRef{Elem: first, Port: 0}
}
