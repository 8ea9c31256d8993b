// Package core implements the SymNet symbolic-execution engine: it injects a
// symbolic packet at a network port and explores every feasible execution
// path through the SEFL code attached to the ports of the network's
// elements, maintaining per-path packet memory, constraints, history, and
// detecting network-wide loops.
package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"symnet/internal/prog"
	"symnet/internal/sefl"
)

// WildcardPort attaches code to every port of an element that has no
// port-specific code (the paper's InputPort(*)).
const WildcardPort = -1

// Element is a network box: a number of input and output ports, each with
// optional code. Connections are unidirectional from output ports to
// input ports, so bidirectional connectivity needs two port pairs (§5).
//
// An element keeps its port code in one table keyed by direction and port
// (a specific port or WildcardPort). An entry holds the SEFL source a model
// attached and the flat IR of internal/prog compiled from it at most once,
// on first execution; the program is shared read-only across scheduler
// workers and batch jobs. A fleet member holds topology plus installed
// programs (InstallPrograms): its entries carry a program and no source.
// The table is read concurrently and written only between runs, so models
// may be regenerated between runs: SetInCode/SetOutCode replace the port's
// entry, dropping its program.
type Element struct {
	Name     string
	Kind     string // descriptive: "switch", "router", "nat", ...
	Instance int    // unique per network; scopes local metadata
	NumIn    int
	NumOut   int

	code map[progKey]*portCode
}

// progKey identifies one code-table entry of an element.
type progKey struct {
	out  bool
	port int
}

// label names the entry's program: "elem.in[3]", "elem.out[*]".
func (k progKey) label(elem string) string {
	dir, port := "in", fmt.Sprint(k.port)
	if k.out {
		dir = "out"
	}
	if k.port == WildcardPort {
		port = "*"
	}
	return fmt.Sprintf("%s.%s[%s]", elem, dir, port)
}

// portCode is one code-table entry: the source and its compiled program,
// nil until first use (and never nil on an installed entry).
type portCode struct {
	src      sefl.Instr
	compiled atomic.Pointer[prog.Program]
}

// SetInCode attaches code to an input port (WildcardPort for all).
func (e *Element) SetInCode(port int, code sefl.Instr) *Element {
	e.setCode(progKey{out: false, port: port}, &portCode{src: code})
	return e
}

// SetOutCode attaches code to an output port (WildcardPort for all).
func (e *Element) SetOutCode(port int, code sefl.Instr) *Element {
	e.setCode(progKey{out: true, port: port}, &portCode{src: code})
	return e
}

func (e *Element) setCode(k progKey, c *portCode) {
	if e.code == nil {
		e.code = make(map[progKey]*portCode)
	}
	e.code[k] = c
}

// PatchedOutCode records that an output port's code was updated by an
// in-place patch of its already-compiled program (prog.PatchGuard): the
// entry's source is replaced, so the AST interpreter reads the new rules,
// but its program is kept, because it is the one that was just patched.
// Callers must not be executing the element concurrently.
func (e *Element) PatchedOutCode(port int, code sefl.Instr) {
	k := progKey{out: true, port: port}
	if c := e.code[k]; c != nil {
		c.src = code
		return
	}
	e.setCode(k, &portCode{src: code})
}

// Code returns the source attached to exactly this port (WildcardPort for
// the wildcard entry), without resolving a port to wildcard code. ok is
// false when no source is attached, as on a fleet member.
func (e *Element) Code(port int, out bool) (sefl.Instr, bool) {
	c := e.code[progKey{out: out, port: port}]
	if c == nil || c.src == nil {
		return nil, false
	}
	return c.src, true
}

// entry resolves a port to its code-table entry: the port's own, or the
// wildcard entry when only wildcard code covers it. c is nil when the port
// has no code.
func (e *Element) entry(port int, out bool) (progKey, *portCode) {
	k := progKey{out: out, port: port}
	if c, ok := e.code[k]; ok {
		return k, c
	}
	k.port = WildcardPort
	return k, e.code[k]
}

// CachedProgram returns the compiled program resident for a port, without
// compiling on miss — the handle an incremental updater patches in place.
// The bool reports whether a compiled program was resident.
func (e *Element) CachedProgram(port int, out bool) (*prog.Program, bool) {
	if _, c := e.entry(port, out); c != nil {
		if p := c.compiled.Load(); p != nil {
			return p, true
		}
	}
	return nil, false
}

// codeFor returns the compiled program of a port's code, compiling it on
// first use; hit reports whether it was already compiled. ok is false when
// the port has no code. Concurrent first uses may compile twice; the
// compare-and-swap keeps one winner and the loser is equivalent (programs
// are pure compilations of the same source), so results do not depend on
// the race.
func (e *Element) codeFor(port int, out bool) (p *prog.Program, ok, hit bool) {
	k, c := e.entry(port, out)
	if c == nil {
		return nil, false, false
	}
	if p := c.compiled.Load(); p != nil {
		return p, true, true
	}
	p = prog.Compile(c.src, e.Name, e.Instance, k.label(e.Name))
	if !c.compiled.CompareAndSwap(nil, p) {
		p = c.compiled.Load()
	}
	return p, true, false
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
