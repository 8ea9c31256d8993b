package core

// Wire codec for networks and their compiled programs. The distributed
// runner serializes the coordinator's network — elements, port code ASTs,
// links — plus every compiled element-port program, and workers rebuild an
// identical network with the compiled cache pre-populated, skipping
// recompilation. Nothing derived from a program crosses: decoding a program
// derives its segment continuations, exactly as compiling it does. Element
// instance numbers are part of the
// semantics (local metadata keys bake them in), so the wire form carries
// them and decoding re-adds elements in instance order, reproducing them
// exactly.

import (
	"fmt"
	"sort"

	"symnet/internal/prog"
	"symnet/internal/sefl"
)

// WirePortCode is the SEFL code attached to one port (Port may be
// WildcardPort).
type WirePortCode struct {
	Port int
	Code *sefl.WireInstr
}

// WireElement is the concrete form of one Element.
type WireElement struct {
	Name     string
	Kind     string
	Instance int
	NumIn    int
	NumOut   int
	In       []WirePortCode
	Out      []WirePortCode
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

// WireProgramEntry is one compiled program keyed the way the element's
// program cache keys it: the resolved code-map port (a specific port or
// WildcardPort) plus the direction.
type WireProgramEntry struct {
	Elem string
	Port int
	Out  bool
	Prog *prog.WireProgram
}

// EncodeNetwork converts a network to its wire form. Elements are emitted in
// instance order and port code in port order, so encoding is deterministic.
func EncodeNetwork(n *Network) (*WireNetwork, error) {
	elems := n.Elements()
	sort.Slice(elems, func(i, j int) bool { return elems[i].Instance < elems[j].Instance })
	w := &WireNetwork{Elems: make([]WireElement, 0, len(elems))}
	for _, e := range elems {
		we := WireElement{
			Name: e.Name, Kind: e.Kind, Instance: e.Instance,
			NumIn: e.NumIn, NumOut: e.NumOut,
		}
		var err error
		if we.In, err = encodePortCodes(e.Name, "in", e.InCode); err != nil {
			return nil, err
		}
		if we.Out, err = encodePortCodes(e.Name, "out", e.OutCode); err != nil {
			return nil, err
		}
		w.Elems = append(w.Elems, we)
	}
	for _, l := range n.Links() {
		w.Links = append(w.Links, WireLink{
			FromElem: l[0].Elem, FromPort: l[0].Port,
			ToElem: l[1].Elem, ToPort: l[1].Port,
		})
	}
	return w, nil
}

func encodePortCodes(elem, dir string, codes map[int]sefl.Instr) ([]WirePortCode, error) {
	if len(codes) == 0 {
		return nil, nil
	}
	ports := make([]int, 0, len(codes))
	for p := range codes {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	out := make([]WirePortCode, 0, len(ports))
	for _, p := range ports {
		code, err := sefl.EncodeInstr(codes[p])
		if err != nil {
			return nil, fmt.Errorf("core: encode %s.%s[%d]: %w", elem, dir, p, err)
		}
		out = append(out, WirePortCode{Port: p, Code: code})
	}
	return out, nil
}

// DecodeNetwork rebuilds a network from its wire form. Element instances are
// verified to round-trip: they are baked into compiled metadata keys, so a
// mismatch would silently change semantics.
func DecodeNetwork(w *WireNetwork) (*Network, error) {
	if w == nil {
		return nil, fmt.Errorf("core: decode network: no network in the setup")
	}
	n := NewNetwork()
	for _, we := range w.Elems {
		if _, dup := n.Element(we.Name); dup {
			return nil, fmt.Errorf("core: decode element %s: duplicate name", we.Name)
		}
		e := n.AddElement(we.Name, we.Kind, we.NumIn, we.NumOut)
		if e.Instance != we.Instance {
			return nil, fmt.Errorf("core: decode element %s: instance %d != wire instance %d (elements must arrive in instance order)", we.Name, e.Instance, we.Instance)
		}
		for _, pc := range we.In {
			code, err := sefl.DecodeInstr(pc.Code)
			if err != nil {
				return nil, fmt.Errorf("core: decode %s.in[%d]: %w", we.Name, pc.Port, err)
			}
			e.SetInCode(pc.Port, code)
		}
		for _, pc := range we.Out {
			code, err := sefl.DecodeInstr(pc.Code)
			if err != nil {
				return nil, fmt.Errorf("core: decode %s.out[%d]: %w", we.Name, pc.Port, err)
			}
			e.SetOutCode(pc.Port, code)
		}
	}
	for _, l := range w.Links {
		if err := n.Link(l.FromElem, l.FromPort, l.ToElem, l.ToPort); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// codeRefs lists every port of the network that has code, in
// element-instance then (in before out, port) order — the deterministic
// order every whole-network encoder shares. Refs name ports the way the
// per-element cache keys them: the code-map port (a specific port or
// WildcardPort) plus direction.
func codeRefs(n *Network) []PortRef {
	elems := n.Elements()
	sort.Slice(elems, func(i, j int) bool { return elems[i].Instance < elems[j].Instance })
	var refs []PortRef
	for _, e := range elems {
		for _, dir := range []bool{false, true} {
			codes := e.InCode
			if dir {
				codes = e.OutCode
			}
			lo := len(refs)
			for p := range codes {
				refs = append(refs, PortRef{Elem: e.Name, Port: p, Out: dir})
			}
			sort.Slice(refs[lo:], func(i, j int) bool { return refs[lo+i].Port < refs[lo+j].Port })
		}
	}
	return refs
}

// codeAt returns the compiled program behind a ref, compiling as needed. An
// unknown element is an error; ok is false for a port with no code.
func codeAt(n *Network, ref PortRef) (p *prog.Program, ok bool, err error) {
	e, found := n.Element(ref.Elem)
	if !found {
		return nil, false, fmt.Errorf("core: unknown element %q", ref.Elem)
	}
	p, ok, _ = e.codeFor(ref.Port, ref.Out)
	return p, ok, nil
}

// Warm compiles every element-port program of the network, so no later run
// pays for it (and concurrent first runs cannot race to do the same work
// twice).
func Warm(n *Network) {
	for _, ref := range codeRefs(n) {
		codeAt(n, ref)
	}
}

// EncodePrograms compiles (as needed) and serializes every element-port
// program of the network. The coordinator calls it once per full setup so
// workers skip recompilation; compilation work is shared with subsequent
// local runs via the per-element cache.
func EncodePrograms(n *Network) ([]WireProgramEntry, error) {
	return EncodeProgramsFor(n, codeRefs(n))
}

// EncodeProgramsFor compiles (as needed) and serializes only the programs of
// the named element ports, in the order given: after an incremental rule
// change touches a handful of ports, a resident coordinator re-ships just
// those entries instead of re-walking the whole network's IR. An unknown
// element is an error; a ref with no code attached is skipped.
func EncodeProgramsFor(n *Network, refs []PortRef) ([]WireProgramEntry, error) {
	out := make([]WireProgramEntry, 0, len(refs))
	for _, ref := range refs {
		p, ok, err := codeAt(n, ref)
		if err != nil {
			return nil, fmt.Errorf("core: encode program: %w", err)
		}
		if !ok {
			continue
		}
		wp, err := prog.EncodeProgram(p)
		if err != nil {
			return nil, err
		}
		out = append(out, WireProgramEntry{Elem: ref.Elem, Port: ref.Port, Out: ref.Out, Prog: wp})
	}
	return out, nil
}

// InstallPrograms decodes serialized programs into the network's caches,
// keyed exactly as lazy compilation would key them; whatever program a port
// held before is replaced. Ports without an installed program still compile
// lazily, so a partial set degrades to local compilation rather than
// failing.
func InstallPrograms(n *Network, entries []WireProgramEntry) error {
	for _, we := range entries {
		e, ok := n.Element(we.Elem)
		if !ok {
			return fmt.Errorf("core: install program for unknown element %q", we.Elem)
		}
		p, err := prog.DecodeProgram(we.Prog)
		if err != nil {
			return err
		}
		e.code.Store(progKey{out: we.Out, port: we.Port}, p)
	}
	return nil
}
