// Package core implements the SymNet symbolic-execution engine: it injects a
// symbolic packet at a network port and explores every feasible execution
// path through the SEFL code attached to the ports of the network's
// elements, maintaining per-path packet memory, constraints, history, and
// detecting network-wide loops.
package core

import (
	"fmt"
	"sort"
	"sync"

	"symnet/internal/prog"
	"symnet/internal/sefl"
)

// WildcardPort attaches code to every port of an element that has no
// port-specific code (the paper's InputPort(*)).
const WildcardPort = -1

// Element is a network box: a number of input and output ports, each with
// optional SEFL code. Connections are unidirectional from output ports to
// input ports, so bidirectional connectivity needs two port pairs (§5).
//
// Port code is authored as a SEFL AST and compiled lazily to the flat IR of
// internal/prog on first execution; the compiled program is cached per
// (direction, port key) and shared read-only across scheduler workers and
// batch jobs. SetInCode/SetOutCode invalidate the affected cache entry, so
// models may be regenerated between runs.
type Element struct {
	Name     string
	Kind     string // descriptive: "switch", "router", "nat", ...
	Instance int    // unique per network; scopes local metadata
	NumIn    int
	NumOut   int
	InCode   map[int]sefl.Instr
	OutCode  map[int]sefl.Instr

	// code caches what the engine executes, keyed by progKey. The key's
	// port is the resolved code-map key (a specific port or WildcardPort),
	// so all ports sharing wildcard code share one entry.
	code sync.Map // progKey -> *prog.Program
}

// progKey identifies one cache entry of an element.
type progKey struct {
	out  bool
	port int
}

// SetInCode attaches code to an input port (WildcardPort for all).
func (e *Element) SetInCode(port int, code sefl.Instr) *Element {
	if e.InCode == nil {
		e.InCode = make(map[int]sefl.Instr)
	}
	e.InCode[port] = code
	e.code.Delete(progKey{out: false, port: port})
	return e
}

// SetOutCode attaches code to an output port (WildcardPort for all).
func (e *Element) SetOutCode(port int, code sefl.Instr) *Element {
	if e.OutCode == nil {
		e.OutCode = make(map[int]sefl.Instr)
	}
	e.OutCode[port] = code
	e.code.Delete(progKey{out: true, port: port})
	return e
}

// PatchedOutCode records that an output port's code was updated by an
// in-place patch of its already-compiled program (prog.PatchGuard): the
// source AST is replaced so a later cache invalidation recompiles the new
// rules, but the cached program is kept, because it is the one that was
// just patched. Callers must not be executing the element concurrently.
func (e *Element) PatchedOutCode(port int, code sefl.Instr) {
	if e.OutCode == nil {
		e.OutCode = make(map[int]sefl.Instr)
	}
	e.OutCode[port] = code
}

// codeKey resolves a port to the key its code is cached under: the port
// itself, or WildcardPort when only wildcard code covers it. ok is false
// when the port has no code.
func (e *Element) codeKey(port int, out bool) (progKey, bool) {
	codes := e.InCode
	if out {
		codes = e.OutCode
	}
	if _, ok := codes[port]; !ok {
		if _, ok := codes[WildcardPort]; !ok {
			return progKey{}, false
		}
		port = WildcardPort
	}
	return progKey{out: out, port: port}, true
}

// CachedProgram returns the compiled program cached for a port, without
// compiling on miss — the handle an incremental updater patches in place.
// The bool reports whether a compiled program was resident.
func (e *Element) CachedProgram(port int, out bool) (*prog.Program, bool) {
	if ck, ok := e.codeKey(port, out); ok {
		if v, ok := e.code.Load(ck); ok {
			return v.(*prog.Program), true
		}
	}
	return nil, false
}

func (e *Element) inCodeFor(port int) (sefl.Instr, bool) {
	if c, ok := e.InCode[port]; ok {
		return c, true
	}
	c, ok := e.InCode[WildcardPort]
	return c, ok
}

func (e *Element) outCodeFor(port int) (sefl.Instr, bool) {
	if c, ok := e.OutCode[port]; ok {
		return c, true
	}
	c, ok := e.OutCode[WildcardPort]
	return c, ok
}

// codeFor returns the compiled program of a port's code, compiling and
// caching on first use; hit reports whether it came from the cache. ok is
// false when the port has no code. Concurrent first uses may compile twice;
// LoadOrStore keeps one winner and the loser is equivalent (programs are
// pure compilations of the same AST), so results do not depend on the race.
func (e *Element) codeFor(port int, out bool) (p *prog.Program, ok, hit bool) {
	ck, ok := e.codeKey(port, out)
	if !ok {
		return nil, false, false
	}
	if v, ok := e.code.Load(ck); ok {
		return v.(*prog.Program), true, true
	}
	codes, dir := e.InCode, "in"
	if out {
		codes, dir = e.OutCode, "out"
	}
	portLabel := fmt.Sprintf("%d", ck.port)
	if ck.port == WildcardPort {
		portLabel = "*"
	}
	p = prog.Compile(codes[ck.port], e.Name, e.Instance, fmt.Sprintf("%s.%s[%s]", e.Name, dir, portLabel))
	actual, _ := e.code.LoadOrStore(ck, p)
	return actual.(*prog.Program), true, false
}

// Programs returns the compiled program of every port that has code,
// compiling as needed — input ports first, then output ports, specific
// ports before wildcards resolved per port. It powers cmd/symnet -dump-ir.
func (e *Element) Programs() []*prog.Program {
	var out []*prog.Program
	seen := make(map[*prog.Program]bool)
	add := func(port int, dir bool) {
		if p, ok, _ := e.codeFor(port, dir); ok && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for port := 0; port < e.NumIn; port++ {
		add(port, false)
	}
	for port := 0; port < e.NumOut; port++ {
		add(port, true)
	}
	return out
}

// PortRef names a port of an element. Out distinguishes output ports.
type PortRef struct {
	Elem string
	Port int
	Out  bool
}

func (p PortRef) String() string {
	dir := "in"
	if p.Out {
		dir = "out"
	}
	return fmt.Sprintf("%s.%s[%d]", p.Elem, dir, p.Port)
}

// Network is the set of elements and the unidirectional links between their
// ports.
type Network struct {
	elems        map[string]*Element
	links        map[PortRef]PortRef // from output port to input port
	nextInstance int
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		elems: make(map[string]*Element),
		links: make(map[PortRef]PortRef),
	}
}

// AddElement creates and registers an element with the given port counts.
// It panics on duplicate names: network construction errors are programming
// errors.
func (n *Network) AddElement(name, kind string, numIn, numOut int) *Element {
	if _, dup := n.elems[name]; dup {
		panic("core: duplicate element " + name)
	}
	e := &Element{
		Name:     name,
		Kind:     kind,
		Instance: n.nextInstance,
		NumIn:    numIn,
		NumOut:   numOut,
		InCode:   make(map[int]sefl.Instr),
		OutCode:  make(map[int]sefl.Instr),
	}
	n.nextInstance++
	n.elems[name] = e
	return e
}

// Element returns a registered element by name.
func (n *Network) Element(name string) (*Element, bool) {
	e, ok := n.elems[name]
	return e, ok
}

// Elements returns all elements sorted by name.
func (n *Network) Elements() []*Element {
	out := make([]*Element, 0, len(n.elems))
	for _, e := range n.elems {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Link connects an output port to an input port (unidirectional).
func (n *Network) Link(fromElem string, fromPort int, toElem string, toPort int) error {
	fe, ok := n.elems[fromElem]
	if !ok {
		return fmt.Errorf("core: link source element %q not found", fromElem)
	}
	te, ok := n.elems[toElem]
	if !ok {
		return fmt.Errorf("core: link target element %q not found", toElem)
	}
	if fromPort < 0 || fromPort >= fe.NumOut {
		return fmt.Errorf("core: %s has no output port %d", fromElem, fromPort)
	}
	if toPort < 0 || toPort >= te.NumIn {
		return fmt.Errorf("core: %s has no input port %d", toElem, toPort)
	}
	from := PortRef{Elem: fromElem, Port: fromPort, Out: true}
	if _, dup := n.links[from]; dup {
		return fmt.Errorf("core: output port %s already linked", from)
	}
	n.links[from] = PortRef{Elem: toElem, Port: toPort}
	return nil
}

// MustLink is Link that panics on error, for statically-known topologies.
func (n *Network) MustLink(fromElem string, fromPort int, toElem string, toPort int) {
	if err := n.Link(fromElem, fromPort, toElem, toPort); err != nil {
		panic(err)
	}
}

// Follow returns the input port linked to an output port.
func (n *Network) Follow(out PortRef) (PortRef, bool) {
	in, ok := n.links[out]
	return in, ok
}

// Links returns all links sorted by source for deterministic output.
func (n *Network) Links() [][2]PortRef {
	out := make([][2]PortRef, 0, len(n.links))
	for f, t := range n.links {
		out = append(out, [2]PortRef{f, t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0].Elem != out[j][0].Elem {
			return out[i][0].Elem < out[j][0].Elem
		}
		return out[i][0].Port < out[j][0].Port
	})
	return out
}
