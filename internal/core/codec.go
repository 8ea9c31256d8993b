package core

// Wire codec for networks and their port code. The distributed runner
// serializes the coordinator's topology — elements and links — plus the
// SEFL source of every code-table entry, and a fleet member rebuilds the
// topology, installs each source in its entry and compiles it there with
// prog.Compile, as the coordinator compiled it, so the member's runs start
// warm on the same programs. Nothing compiled crosses. Element instance
// numbers are part of the semantics (local metadata keys bake them in), so
// the wire form carries them and decoding re-adds elements in instance
// order, reproducing them exactly.

import (
	"fmt"

	"symnet/internal/prog"
	"symnet/internal/sefl"
)

// WireElement is the concrete form of one Element's topology.
type WireElement struct {
	Name     string
	Kind     string
	Instance int
	NumIn    int
	NumOut   int
}

// WireLink is one unidirectional link.
type WireLink struct {
	FromElem string
	FromPort int
	ToElem   string
	ToPort   int
}

// WireNetwork is the concrete form of a Network.
type WireNetwork struct {
	Elems []WireElement
	Links []WireLink
}

// WireProgramEntry is one code-table entry's SEFL source, keyed the way the
// element's code table keys it: a specific port or WildcardPort, plus the
// direction.
type WireProgramEntry struct {
	Elem string
	Port int
	Out  bool
	Src  *sefl.WireInstr
}

// EncodeNetwork converts a network's topology to its wire form; port code
// crosses as source (EncodePrograms). Elements are emitted in instance
// order, so encoding is deterministic. It cannot fail; the error result
// keeps the form its callers check.
func EncodeNetwork(n *Network) (*WireNetwork, error) {
	w := &WireNetwork{Elems: make([]WireElement, 0, len(n.order))}
	for _, e := range n.order {
		w.Elems = append(w.Elems, WireElement{
			Name: e.Name, Kind: e.Kind, Instance: e.Instance,
			NumIn: e.NumIn, NumOut: e.NumOut,
		})
	}
	for _, l := range n.Links() {
		w.Links = append(w.Links, WireLink{
			FromElem: l[0].Elem, FromPort: l[0].Port,
			ToElem: l[1].Elem, ToPort: l[1].Port,
		})
	}
	return w, nil
}

// DecodeNetwork rebuilds a network's topology from its wire form; its
// elements have no code until InstallPrograms gives them some. Element
// instances are verified to round-trip: they are baked into compiled
// metadata keys, so a mismatch would silently change semantics.
func DecodeNetwork(w *WireNetwork) (*Network, error) {
	if w == nil {
		return nil, fmt.Errorf("core: decode network: no network in the setup")
	}
	n := NewNetwork()
	for _, we := range w.Elems {
		if _, dup := n.Element(we.Name); dup {
			return nil, fmt.Errorf("core: decode element %s: duplicate name", we.Name)
		}
		// Each port costs a record and a link slot: at most 1<<24 in all.
		if min(we.NumIn, we.NumOut) < 0 || max(we.NumIn, we.NumOut) > 1<<24 || len(n.links)+we.NumIn+we.NumOut > 1<<24 {
			return nil, fmt.Errorf("core: decode element %s: %d input and %d output ports; a network holds at most %d", we.Name, we.NumIn, we.NumOut, 1<<24)
		}
		e := n.AddElement(we.Name, we.Kind, we.NumIn, we.NumOut)
		if e.Instance != we.Instance {
			return nil, fmt.Errorf("core: decode element %s: instance %d != wire instance %d (elements must arrive in instance order)", we.Name, e.Instance, we.Instance)
		}
	}
	for _, l := range w.Links {
		if err := n.Link(l.FromElem, l.FromPort, l.ToElem, l.ToPort); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Warm compiles every element-port program of the network, so no later run
// pays for it (and concurrent first runs cannot race to do the same work
// twice).
func Warm(n *Network) {
	for _, ref := range codeRefs(n.order...) {
		n.elems[ref.Elem].codeFor(ref.Port, ref.Out)
	}
}

// EncodePrograms serializes the source of every code-table entry of the
// network, in the order every whole-network encoder shares (codeRefs). It
// compiles nothing: the wire carries source, which each member compiles.
func EncodePrograms(n *Network) ([]WireProgramEntry, error) {
	return EncodeProgramsFor(n, codeRefs(n.order...))
}

// EncodeProgramsFor serializes only the sources of the entries covering the
// named element ports (a port's own, else its wildcard entry), in the order
// given: after an incremental rule change touches a handful of ports, a
// resident coordinator re-ships just those entries. An unknown element is
// an error; a ref with no code attached is skipped. It fails on source that
// cannot cross the wire (a For body built from a bare closure).
func EncodeProgramsFor(n *Network, refs []PortRef) ([]WireProgramEntry, error) {
	out := make([]WireProgramEntry, 0, len(refs))
	for _, ref := range refs {
		e, found := n.Element(ref.Elem)
		if !found {
			return nil, fmt.Errorf("core: encode program: unknown element %q", ref.Elem)
		}
		at := e.entry(ref.Port, ref.Out)
		if at.code == nil {
			continue
		}
		src, err := sefl.EncodeInstr(at.code.src)
		if err != nil {
			return nil, fmt.Errorf("core: encode program %s: %w", label(e.Name, at.num, ref.Out), err)
		}
		out = append(out, WireProgramEntry{Elem: ref.Elem, Port: at.num, Out: ref.Out, Src: src})
	}
	return out, nil
}

// InstallPrograms decodes serialized sources into the network's code tables,
// keyed exactly as EncodePrograms keyed them, and compiles each one as the
// element's own (its name and instance scope the program, as they do on the
// coordinator): each entry replaces whatever the port held. A fleet member
// decodes a topology without code, so there a port has code exactly when its
// source was shipped, and its runs compile nothing. An entry that names an
// element or port the network lacks is refused.
func InstallPrograms(n *Network, entries []WireProgramEntry) error {
	for _, we := range entries {
		e, ok := n.Element(we.Elem)
		if !ok {
			return fmt.Errorf("core: install program for unknown element %q", we.Elem)
		}
		at, err := e.checkPort(we.Port, we.Out)
		if err != nil {
			return fmt.Errorf("core: install program %w", err)
		}
		src, err := sefl.DecodeInstr(we.Src)
		if err != nil {
			return fmt.Errorf("core: install program %s: %w", label(e.Name, we.Port, we.Out), err)
		}
		at.code = &portCode{src: src}
		at.code.compiled.Store(prog.Compile(src, e.Name, e.Instance, label(e.Name, we.Port, we.Out)))
	}
	return nil
}
