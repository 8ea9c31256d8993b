// Package core implements the SymNet symbolic-execution engine: it injects a
// symbolic packet at a network port and explores every feasible execution
// path through the SEFL code attached to the ports of the network's
// elements, maintaining per-path packet memory, constraints, history, and
// detecting network-wide loops. Inside the engine ports are records with
// dense IDs; callers name them by PortRef, rendered from the records.
package core

import (
	"fmt"
	"slices"
	"strings"
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
// Its port records (see Network) are its code table: per direction a
// wildcard record, then one per port. An entry holds the SEFL source a
// model attached and the flat IR of internal/prog compiled from it at most
// once, on first execution; the program is shared read-only across
// scheduler workers and batch jobs. A fleet member compiles each entry's
// shipped source as it installs it (InstallPrograms). The table is read
// concurrently and written only between runs, so
// models may be regenerated between runs: SetInCode/SetOutCode replace the
// port's entry, dropping its program.
type Element struct {
	Name     string
	Kind     string // descriptive: "switch", "router", "nat", ...
	Instance int    // unique per network; scopes local metadata
	NumIn    int
	NumOut   int

	ports []port // in[*], in[0], ..., out[*], out[0], ...
}

// portID numbers a record densely within its network: elements in instance
// order, each one's records in table order.
type portID int32

// port is the record of one (element, port, direction) and its code-table
// entry. States and history nodes point at it; PortRefs are rendered from
// it. A wildcard record is never a position or a link end.
type port struct {
	elem *Element
	num  int
	out  bool
	id   portID
	code *portCode              // nil when the record has no code of its own
	name atomic.Pointer[string] // the rendered PortRef, once Network.PortName asked
}

func (p *port) ref() PortRef { return PortRef{Elem: p.elem.Name, Port: p.num, Out: p.out} }

// at returns the record of a port (WildcardPort: the wildcard record), nil
// when the element lacks the port.
func (e *Element) at(num int, out bool) *port {
	i, n := 1+num, e.NumIn
	if out {
		i, n = e.NumIn+2+num, e.NumOut
	}
	if num < WildcardPort || num >= n {
		return nil
	}
	return &e.ports[i]
}

// label names a port or code-table entry: "elem.in[3]", "elem.out[*]".
func label(elem string, port int, out bool) string {
	dir := "in"
	if out {
		dir = "out"
	}
	if port == WildcardPort {
		return fmt.Sprintf("%s.%s[*]", elem, dir)
	}
	return fmt.Sprintf("%s.%s[%d]", elem, dir, port)
}

// checkPort is at refusing a port the element lacks: code there could
// never run in-process, and a fleet member would refuse its source.
func (e *Element) checkPort(port int, out bool) (*port, error) {
	if p := e.at(port, out); p != nil {
		return p, nil
	}
	n, dir := e.NumIn, "input"
	if out {
		n, dir = e.NumOut, "output"
	}
	return nil, fmt.Errorf("%s: %s has %d %s ports", label(e.Name, port, out), e.Name, n, dir)
}

// mustAt is checkPort for the code setters, panicking on a port the element
// lacks.
func (e *Element) mustAt(port int, out bool) *port {
	p, err := e.checkPort(port, out)
	if err != nil {
		panic("core: set code " + err.Error())
	}
	return p
}

// portCode is one code-table entry: the source and its compiled program,
// nil until first use (a fleet member's installed entry compiles at once).
// An entry is never edited: new code for a port is a new entry, so a
// compiled program is only ever its own source's.
type portCode struct {
	src      sefl.Instr
	compiled atomic.Pointer[prog.Program]
}

// SetInCode attaches code to an input port (WildcardPort for all). It panics
// on a port the element lacks.
func (e *Element) SetInCode(port int, code sefl.Instr) *Element {
	e.mustAt(port, false).code = &portCode{src: code}
	return e
}

// SetOutCode attaches code to an output port (WildcardPort for all). It
// panics on a port the element lacks.
func (e *Element) SetOutCode(port int, code sefl.Instr) *Element {
	e.mustAt(port, true).code = &portCode{src: code}
	return e
}

// Code returns the source attached to exactly this port (WildcardPort for
// the wildcard entry), without resolving a port to wildcard code. ok is
// false when no source is attached.
func (e *Element) Code(port int, out bool) (sefl.Instr, bool) {
	if p := e.at(port, out); p != nil && p.code != nil && p.code.src != nil {
		return p.code.src, true
	}
	return nil, false
}

// entry resolves a port to the record whose code-table entry covers it: the
// port's own, or the wildcard record when only wildcard code covers it. Its
// code is nil when the port has no code.
func (e *Element) entry(port int, out bool) *port {
	if p := e.at(port, out); p != nil && p.code != nil {
		return p
	}
	return e.at(WildcardPort, out)
}

// CachedProgram returns the compiled program resident for a port, without
// compiling on miss. The bool reports whether a compiled program was
// resident.
func (e *Element) CachedProgram(port int, out bool) (*prog.Program, bool) {
	if c := e.entry(port, out).code; c != nil {
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
	at := e.entry(port, out)
	c := at.code
	if c == nil {
		return nil, false, false
	}
	if p := c.compiled.Load(); p != nil {
		return p, true, true
	}
	p = prog.Compile(c.src, e.Name, e.Instance, label(e.Name, at.num, out))
	if !c.compiled.CompareAndSwap(nil, p) {
		p = c.compiled.Load()
	}
	return p, true, false
}

// Programs returns the compiled program of every code-table entry,
// compiling as needed, in table order. It powers cmd/symnet -dump-ir.
func (e *Element) Programs() []*prog.Program {
	var out []*prog.Program
	for _, ref := range codeRefs(e) {
		p, _, _ := e.codeFor(ref.Port, ref.Out)
		out = append(out, p)
	}
	return out
}

// codeRefs lists every code-table entry of elems, each element's in table
// order: in before out, wildcard first, port ascending. Over a network's
// elements in instance order it is the deterministic order every
// whole-network encoder shares. Refs name entries the way the table keys
// them: a specific port or WildcardPort, plus direction.
func codeRefs(elems ...*Element) []PortRef {
	var refs []PortRef
	for _, e := range elems {
		for i := range e.ports {
			if e.ports[i].code != nil {
				refs = append(refs, e.ports[i].ref())
			}
		}
	}
	return refs
}

// PortRef names a port of an element. Out distinguishes output ports.
type PortRef struct {
	Elem string
	Port int
	Out  bool
}

func (p PortRef) String() string { return label(p.Elem, p.Port, p.Out) }

// Network is the set of elements and the unidirectional links between their
// ports. Adding an element mints its records and their IDs, so a network
// decoded from its wire form, which adds elements in instance order, mints
// its coordinator's IDs.
type Network struct {
	elems map[string]*Element
	order []*Element // by instance
	links []*port    // by output port ID; nil where unlinked
	// cycles caches onCycle's marks; AddElement and Link reset it.
	cycles atomic.Pointer[[]bool]
	// injected is the network's injection slot: the last injection code a
	// run compiled, and the packet it builds (see injectProgram).
	injected atomic.Pointer[injection]
}

// injection is a network's injection slot: the compiled program, a private
// copy of the source it was compiled from, and the packet the code builds.
type injection struct {
	src  sefl.Instr
	prog *prog.Program
	// pkt is the packet the code builds, stored by the first run that may
	// share it (run.keepPacket) and nil until then.
	pkt atomic.Pointer[packet]
}

// injectProgram returns the compiled injection code init for element e, and
// the slot whose packet a run may share: nil when the code reads its
// element (prog.Program.ReadsElem), whose packet is its element's own.
// Every source of an all-pairs query injects the same packet, so the
// network keeps one slot, the last code compiled: code equal to it
// (sefl.Equal) reuses its program, rebound to e (prog.Program.Rebind), and
// its packet; other code compiles and takes the slot, so new code replaces
// the program and the packet together. The slot compiles from its own copy
// of the code, so a caller that edits init after the run never meets a
// program or a packet of the old code. Concurrent runs may each compile;
// the last store takes the slot, and each run keeps the program it was
// handed.
func (n *Network) injectProgram(init sefl.Instr, e *Element) (*prog.Program, *injection) {
	label := func() string { return e.Name + ".inject" }
	if c := n.injected.Load(); c != nil && sefl.Equal(init, c.src) {
		if c.prog.Elem == e.Name && c.prog.Instance == e.Instance {
			return c.prog, shareable(c)
		}
		if p, ok := c.prog.Rebind(e.Name, e.Instance, label()); ok {
			return p, c
		}
	}
	src := sefl.Clone(init)
	c := &injection{src: src, prog: prog.Compile(src, e.Name, e.Instance, label())}
	n.injected.Store(c)
	return c.prog, shareable(c)
}

// shareable returns slot c, or nil when its code reads its element.
func shareable(c *injection) *injection {
	if c.prog.ReadsElem() {
		return nil
	}
	return c
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{elems: make(map[string]*Element)}
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
		Instance: len(n.order),
		NumIn:    numIn,
		NumOut:   numOut,
		ports:    make([]port, numIn+numOut+2),
	}
	for i := range e.ports {
		e.ports[i] = port{elem: e, num: i - 1, id: portID(len(n.links) + i)}
		if i > numIn {
			e.ports[i].num, e.ports[i].out = i-numIn-2, true
		}
	}
	n.links = append(n.links, make([]*port, len(e.ports))...)
	n.cycles.Store(nil)
	n.order = append(n.order, e)
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
	out := slices.Clone(n.order)
	slices.SortFunc(out, func(a, b *Element) int { return strings.Compare(a.Name, b.Name) })
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
	from := fe.at(fromPort, true)
	if n.links[from.id] != nil {
		return fmt.Errorf("core: output port %s already linked", from.ref())
	}
	n.links[from.id] = te.at(toPort, false)
	n.cycles.Store(nil)
	return nil
}

// acyclic is onCycle's answer for every network without a cycle.
var acyclic []bool

// onCycle returns, by port ID, whether one path can enter the port twice:
// whether it is an input port that a link from an element of its own
// element's strongly connected component enters, taking every input of an
// element to reach every output. A network without a cycle gets an empty
// slice. The marks are computed once per topology (Tarjan over the
// elements); concurrent first calls compute equal marks.
func (n *Network) onCycle() []bool {
	if m := n.cycles.Load(); m != nil {
		return *m
	}
	m := &acyclic
	if marks := n.cycleMarks(); marks != nil {
		m = new([]bool)
		*m = marks
	}
	n.cycles.Store(m)
	return *m
}

// cycleMarks computes onCycle's marks, nil when no port has one.
func (n *Network) cycleMarks() []bool {
	if !slices.ContainsFunc(n.links, func(p *port) bool { return p != nil }) {
		return nil
	}
	// comp[i] names the component of the element of instance i: the index
	// its root was visited at. index[i] is 0 until i is visited.
	count := len(n.order)
	index, low, comp := make([]int32, count), make([]int32, count), make([]int32, count)
	onStack := make([]bool, count)
	var stack []int32
	var next int32
	var visit func(v int32)
	visit = func(v int32) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true
		e := n.order[v]
		for i := range e.NumOut {
			to := n.links[e.at(i, true).id]
			if to == nil {
				continue
			}
			w := int32(to.elem.Instance)
			if index[w] == 0 {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = index[v]
				if w == v {
					break
				}
			}
		}
	}
	for v := range int32(count) {
		if index[v] == 0 {
			visit(v)
		}
	}
	var marks []bool
	for _, e := range n.order {
		for i := range e.NumOut {
			to := n.links[e.at(i, true).id]
			if to == nil || comp[e.Instance] != comp[to.elem.Instance] {
				continue
			}
			if marks == nil {
				marks = make([]bool, len(n.links))
			}
			marks[to.id] = true
		}
	}
	return marks
}

// MustLink is Link that panics on error, for statically-known topologies.
func (n *Network) MustLink(fromElem string, fromPort int, toElem string, toPort int) {
	if err := n.Link(fromElem, fromPort, toElem, toPort); err != nil {
		panic(err)
	}
}

// PortName returns ref rendered as PortRef.String renders it, kept on the
// port's record the first time it is asked, so a name asked for by every
// batch — a source's job name — is rendered once per network. A port the
// network lacks is rendered each time.
func (n *Network) PortName(ref PortRef) string {
	if e, ok := n.elems[ref.Elem]; ok {
		if p := e.at(ref.Port, ref.Out); p != nil {
			if s := p.name.Load(); s != nil {
				return *s
			}
			s := ref.String()
			p.name.Store(&s)
			return s
		}
	}
	return ref.String()
}

// Follow returns the input port linked to an output port.
func (n *Network) Follow(out PortRef) (PortRef, bool) {
	if e, ok := n.elems[out.Elem]; ok && out.Out && out.Port >= 0 {
		if p := e.at(out.Port, true); p != nil && n.links[p.id] != nil {
			return n.links[p.id].ref(), true
		}
	}
	return PortRef{}, false
}

// Links returns every linked output port with the input port it follows
// to, sorted by source: elements by name, then output ports ascending.
func (n *Network) Links() [][2]PortRef {
	var out [][2]PortRef
	for _, e := range n.Elements() {
		for i := range e.NumOut {
			from := PortRef{Elem: e.Name, Port: i, Out: true}
			if to, ok := n.Follow(from); ok {
				out = append(out, [2]PortRef{from, to})
			}
		}
	}
	return out
}
