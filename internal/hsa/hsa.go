// Package hsa implements Header Space Analysis (Kazemian et al., NSDI'12),
// the baseline SymNet is compared against in Table 3 and §2. Headers are
// ternary cubes (fixed bits + wildcards) with lazy difference lists;
// network boxes apply per-port transfer functions; reachability propagates
// header spaces over the topology.
//
// As the paper's §2 discusses, HSA cannot express per-packet invariance
// (a wildcard in yields a wildcard out), which the tunnel experiments
// demonstrate; it is, however, very fast at pure reachability — the
// property Table 3 measures.
package hsa

import (
	"fmt"
	"math/bits"
	"sort"

	"symnet/internal/expr"
	"symnet/internal/tables"
)

// Cube is a ternary match over a width-bit header: bits set in Mask are
// fixed to the corresponding bit of Val; the rest are wildcards.
type Cube struct {
	Mask, Val uint64
}

// FullCube matches everything.
var FullCube = Cube{}

// fromPrefix builds the cube of an IP prefix.
func fromPrefix(prefix uint64, plen, width int) Cube {
	m := expr.PrefixMask(plen, width)
	return Cube{Mask: m, Val: prefix & m}
}

// intersect returns the cube common to c and o; ok is false when they are
// disjoint (they disagree on a commonly-fixed bit).
func (c Cube) intersect(o Cube) (Cube, bool) {
	common := c.Mask & o.Mask
	if (c.Val^o.Val)&common != 0 {
		return Cube{}, false
	}
	return Cube{Mask: c.Mask | o.Mask, Val: (c.Val & c.Mask) | (o.Val & o.Mask)}, true
}

// contains reports whether o ⊆ c.
func (c Cube) contains(o Cube) bool {
	if c.Mask&^o.Mask != 0 {
		return false // c fixes a bit o leaves free
	}
	return (c.Val^o.Val)&c.Mask == 0
}

func (c Cube) String() string {
	if c.Mask == 0 {
		return "*"
	}
	return fmt.Sprintf("%x/%x", c.Val&c.Mask, c.Mask)
}

// Region is a cube minus a (lazy) difference list — the core HSA set
// representation.
type Region struct {
	Base  Cube
	Minus []Cube
}

// NewRegion builds a region from a base cube.
func NewRegion(base Cube) Region { return Region{Base: base} }

// subtract adds cubes to the difference list (intersected with the base;
// disjoint subtrahends are dropped).
func (r Region) subtract(cs ...Cube) Region {
	out := Region{Base: r.Base, Minus: append([]Cube(nil), r.Minus...)}
	for _, c := range cs {
		if i, ok := r.Base.intersect(c); ok {
			out.Minus = append(out.Minus, i)
		}
	}
	return out
}

// intersect returns r ∩ cube.
func (r Region) intersect(c Cube) (Region, bool) {
	base, ok := r.Base.intersect(c)
	if !ok {
		return Region{}, false
	}
	out := Region{Base: base}
	for _, m := range r.Minus {
		if i, ok := base.intersect(m); ok {
			out.Minus = append(out.Minus, i)
		}
	}
	return out, true
}

// empty decides whether base \ minus is empty, by recursive bit splitting
// (the standard lazy-subtraction emptiness check).
func (r Region) empty(width int) bool {
	return emptyRec(r.Base, r.Minus, width, 0)
}

func emptyRec(base Cube, minus []Cube, width, depth int) bool {
	// Drop subtrahends disjoint from the base; if one covers the base, the
	// region is empty.
	live := minus[:0:0]
	for _, m := range minus {
		if _, ok := base.intersect(m); !ok {
			continue
		}
		if m.contains(base) {
			return true
		}
		live = append(live, m)
	}
	if len(live) == 0 {
		return false
	}
	// Split the base on a bit fixed by some subtrahend but free in the base.
	m0 := live[0]
	freeFixed := m0.Mask &^ base.Mask & expr.Mask(width)
	if freeFixed == 0 {
		// m0 fixes no extra bit yet doesn't contain base: impossible after
		// the contains check unless width exhausted.
		return false
	}
	bit := uint64(1) << uint(bits.TrailingZeros64(freeFixed))
	for _, v := range []uint64{0, bit} {
		half := Cube{Mask: base.Mask | bit, Val: (base.Val & base.Mask) | v}
		if !emptyRec(half, live, width, depth+1) {
			return false
		}
	}
	return true
}

// Space is a union of regions.
type Space []Region

// PortFilter is one output of a box's transfer function: the header region
// forwarded to OutPort. Plain routers do not rewrite, so the transfer is a
// pure filter.
type PortFilter struct {
	OutPort int
	Allow   []Region
}

// Box is a network element with a transfer function per input port;
// wildcard (-1) applies to all inputs.
type Box struct {
	Name     string
	Transfer map[int][]PortFilter
}

// wildcard input port.
const wildcard = -1

// FromFIB compiles a router FIB into a transfer function with the same
// longest-prefix-match semantics as the SymNet model: each route's region
// is its prefix cube minus its more-specific covers.
func FromFIB(name string, fib tables.FIB) *Box {
	compiled := tables.CompileLPM(fib)
	perPort := make(map[int][]Region)
	for _, c := range compiled {
		r := NewRegion(fromPrefix(c.Prefix, c.Len, 32))
		for _, ex := range c.Exclusions {
			r = r.subtract(fromPrefix(ex.Prefix, ex.Len, 32))
		}
		perPort[c.Port] = append(perPort[c.Port], r)
	}
	ports := make([]int, 0, len(perPort))
	for p := range perPort {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	filters := make([]PortFilter, 0, len(ports))
	for _, p := range ports {
		filters = append(filters, PortFilter{OutPort: p, Allow: perPort[p]})
	}
	return &Box{Name: name, Transfer: map[int][]PortFilter{wildcard: filters}}
}

// PortRef names a box port.
type PortRef struct {
	Box  string
	Port int
	Out  bool
}

func (p PortRef) String() string {
	d := "in"
	if p.Out {
		d = "out"
	}
	return fmt.Sprintf("%s.%s[%d]", p.Box, d, p.Port)
}

// Network is a set of boxes plus links from output to input ports.
type Network struct {
	Boxes map[string]*Box
	links map[PortRef]PortRef
}

// NewNetwork returns an empty HSA network.
func NewNetwork() *Network {
	return &Network{Boxes: make(map[string]*Box), links: make(map[PortRef]PortRef)}
}

// Add registers a box.
func (n *Network) Add(b *Box) { n.Boxes[b.Name] = b }

// Link connects an output port to an input port.
func (n *Network) Link(fromBox string, fromPort int, toBox string, toPort int) {
	n.links[PortRef{Box: fromBox, Port: fromPort, Out: true}] = PortRef{Box: toBox, Port: toPort}
}

// ReachedSpace is one propagation result: the header space arriving at a
// port.
type ReachedSpace struct {
	At    PortRef
	Space Space
	Hops  int
}

// Reach propagates a header space injected at an input port and returns
// every port reached with a non-empty space. Loops are cut by a hop bound.
func (n *Network) Reach(start PortRef, hdr Space, width, maxHops int) []ReachedSpace {
	type item struct {
		at    PortRef
		space Space
		hops  int
	}
	var out []ReachedSpace
	work := []item{{at: start, space: hdr}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if it.hops > maxHops {
			continue
		}
		out = append(out, ReachedSpace{At: it.at, Space: it.space, Hops: it.hops})
		box, ok := n.Boxes[it.at.Box]
		if !ok {
			continue // sink
		}
		filters, ok := box.Transfer[it.at.Port]
		if !ok {
			filters = box.Transfer[wildcard]
		}
		for _, f := range filters {
			var forwarded Space
			for _, inR := range it.space {
				for _, allowR := range f.Allow {
					// inR ∩ allowR: intersect bases, merge difference lists.
					merged, ok := inR.intersect(allowR.Base)
					if !ok {
						continue
					}
					merged = merged.subtract(allowR.Minus...)
					if !merged.empty(width) {
						forwarded = append(forwarded, merged)
					}
				}
			}
			if len(forwarded) == 0 {
				continue
			}
			next, linked := n.links[PortRef{Box: it.at.Box, Port: f.OutPort, Out: true}]
			if !linked {
				out = append(out, ReachedSpace{At: PortRef{Box: it.at.Box, Port: f.OutPort, Out: true}, Space: forwarded, Hops: it.hops + 1})
				continue
			}
			work = append(work, item{at: next, space: forwarded, hops: it.hops + 1})
		}
	}
	return out
}
