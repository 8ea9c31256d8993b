package sefl

// Wire codec for SEFL ASTs. Distributed verification ships a network's port
// programs to worker processes, so every instruction, expression, condition
// and l-value needs a concrete (gob/json-friendly) representation: each
// interface value becomes a tagged WireX node. Encoding and decoding are
// exact structural inverses — Decode(Encode(x)) is structurally identical to
// x, so compiled programs, trace lines and failure messages on the far side
// are byte-identical to local execution (pinned by codec and dist tests).
//
// The one non-structural case is For, whose body is a Go closure. Bodies
// cross the wire by reference: models register a named body constructor with
// RegisterForBody, and a For built by NewFor carries the registry name plus
// a serialized argument instead of the closure itself.

import (
	"fmt"
	"sync"

	"symnet/internal/expr"
)

// forBodies is the process-global registry of named For-body constructors.
var forBodies sync.Map // string -> func(arg string) func(Meta) Instr

// RegisterForBody registers a named For-body constructor so Fors using it
// can cross process boundaries. mk receives the serialized argument carried
// by the For and must return a body that is a pure function of its key and
// of that argument — both processes rebuild the body from the same (name,
// arg) pair, so the results match exactly. Registration normally happens in
// a package init; duplicate names panic (two models silently sharing a name
// would decode to the wrong body).
func RegisterForBody(name string, mk func(arg string) func(Meta) Instr) {
	if name == "" || mk == nil {
		panic("sefl: RegisterForBody with empty name or nil constructor")
	}
	if _, dup := forBodies.LoadOrStore(name, mk); dup {
		panic("sefl: duplicate For-body registration " + name)
	}
}

// NewFor builds a serializable For: the body comes from the registry entry
// ref applied to arg. It panics on unregistered refs — a model asking for a
// body that does not exist is a programming error, caught at construction
// rather than at decode on a remote worker.
func NewFor(pattern, ref, arg string) For {
	body, err := lookupForBody(ref, arg)
	if err != nil {
		panic("sefl: " + err.Error())
	}
	return For{Pattern: pattern, Body: body, Ref: ref, Arg: arg}
}

func lookupForBody(ref, arg string) (func(Meta) Instr, error) {
	mk, ok := forBodies.Load(ref)
	if !ok {
		return nil, fmt.Errorf("unregistered For body %q (register with sefl.RegisterForBody)", ref)
	}
	return mk.(func(arg string) func(Meta) Instr)(arg), nil
}

// Wire node kinds. One enum spans instructions, expressions, conditions and
// l-values; the struct a kind appears in disambiguates the namespace.
const (
	wNoOp uint8 = iota
	wAllocate
	wDeallocate
	wAssign
	wCreateTag
	wDestroyTag
	wConstrain
	wFail
	wIf
	wFor
	wForward
	wFork
	wBlock

	wNum
	wSymbolic
	wRef
	wAdd
	wSub
	wTagVal

	wCmp
	wPrefix
	wMasked
	wMetaPresent
	wCAnd
	wCOr
	wCNot
	wCBool

	wHdr
	wMeta

	// wCOrPacked is a COr whose disjuncts form an interval-table shape
	// (equality/prefix constraints over one or two shared header fields —
	// the egress-model guards): it crosses the wire as the shared field
	// expression(s) plus a flat word stream of rows instead of a tree of
	// per-entry nodes. Decoding rebuilds the exact original COr, so the
	// packing is invisible to everything downstream; it exists because these
	// guards dominate the distributed setup frame for table-heavy networks.
	wCOrPacked
)

// WireInstr is the concrete form of one Instr (a tagged union; the fields
// used depend on Kind). All wire nodes use exported fields only, so gob and
// encoding/json both handle them without registration.
type WireInstr struct {
	Kind  uint8
	LV    *WireLValue  // Allocate, Deallocate, Assign
	Size  int          // Allocate, Deallocate
	E     *WireExpr    // Assign, CreateTag
	C     *WireCond    // Constrain, If
	Name  string       // CreateTag, DestroyTag; For pattern; Fail message
	Then  *WireInstr   // If
	Else  *WireInstr   // If
	Ref   string       // For body registry name
	Arg   string       // For body argument
	Port  int          // Forward
	Ports []int        // Fork
	Is    []*WireInstr // Block
}

// WireExpr is the concrete form of one Expr.
type WireExpr struct {
	Kind uint8
	V    uint64      // Num value
	W    int         // Num, Symbolic width
	Name string      // Symbolic diagnostic name; TagVal tag
	Rel  int64       // TagVal offset
	LV   *WireLValue // Ref
	A, B *WireExpr   // Add, Sub
}

// WireCond is the concrete form of one Cond.
type WireCond struct {
	Kind uint8
	Op   uint8       // Cmp operator
	L, R *WireExpr   // Cmp operands; Prefix/Masked subject (L); packed fields (L, R)
	Val  uint64      // Prefix value / Masked value
	Mask uint64      // Masked mask
	Len  int         // Prefix length
	W    int         // Prefix width; packed equality-constant width
	M    *WireLValue // MetaPresent
	Cs   []*WireCond // CAnd, COr
	C    *WireCond   // CNot
	B    bool        // CBool
	// Packed-Or payload (Kind == wCOrPacked): W2 is the second field's
	// equality-constant width, PW the shared Prefix width (raw — models
	// leave it 0 for the 32-bit default), Rows the flat row stream.
	W2   int
	PW   int
	Rows []uint64
}

// WireLValue is the concrete form of one LValue.
type WireLValue struct {
	Kind     uint8
	Tag      string // Hdr offset tag
	Rel      int64  // Hdr offset
	Size     int    // Hdr size
	Name     string // Hdr display name / Meta name
	Local    bool   // Meta
	Instance int    // Meta
	Pinned   bool   // Meta
}

// EncodeInstr converts an instruction tree to its wire form. It fails on a
// For whose body was not built via NewFor (closures cannot cross the wire)
// and on instruction types outside the SEFL language.
func EncodeInstr(ins Instr) (*WireInstr, error) {
	switch v := ins.(type) {
	case nil:
		return nil, nil
	case NoOp:
		return &WireInstr{Kind: wNoOp}, nil
	case Allocate:
		lv, err := encodeLValue(v.LV)
		if err != nil {
			return nil, err
		}
		return &WireInstr{Kind: wAllocate, LV: lv, Size: v.Size}, nil
	case Deallocate:
		lv, err := encodeLValue(v.LV)
		if err != nil {
			return nil, err
		}
		return &WireInstr{Kind: wDeallocate, LV: lv, Size: v.Size}, nil
	case Assign:
		lv, err := encodeLValue(v.LV)
		if err != nil {
			return nil, err
		}
		e, err := EncodeExpr(v.E)
		if err != nil {
			return nil, err
		}
		return &WireInstr{Kind: wAssign, LV: lv, E: e}, nil
	case CreateTag:
		e, err := EncodeExpr(v.E)
		if err != nil {
			return nil, err
		}
		return &WireInstr{Kind: wCreateTag, Name: v.Name, E: e}, nil
	case DestroyTag:
		return &WireInstr{Kind: wDestroyTag, Name: v.Name}, nil
	case Constrain:
		c, err := EncodeCond(v.C)
		if err != nil {
			return nil, err
		}
		return &WireInstr{Kind: wConstrain, C: c}, nil
	case Fail:
		return &WireInstr{Kind: wFail, Name: v.Msg}, nil
	case If:
		c, err := EncodeCond(v.C)
		if err != nil {
			return nil, err
		}
		then, err := EncodeInstr(v.Then)
		if err != nil {
			return nil, err
		}
		els, err := EncodeInstr(v.Else)
		if err != nil {
			return nil, err
		}
		return &WireInstr{Kind: wIf, C: c, Then: then, Else: els}, nil
	case For:
		if v.Ref == "" {
			return nil, fmt.Errorf("sefl: cannot serialize For(%q): body is a bare closure; build with sefl.NewFor and a RegisterForBody constructor", v.Pattern)
		}
		if _, ok := forBodies.Load(v.Ref); !ok {
			return nil, fmt.Errorf("sefl: cannot serialize For(%q): body ref %q is not registered", v.Pattern, v.Ref)
		}
		return &WireInstr{Kind: wFor, Name: v.Pattern, Ref: v.Ref, Arg: v.Arg}, nil
	case Forward:
		return &WireInstr{Kind: wForward, Port: v.Port}, nil
	case Fork:
		return &WireInstr{Kind: wFork, Ports: v.Ports}, nil
	case Block:
		is := make([]*WireInstr, len(v.Is))
		for i, sub := range v.Is {
			w, err := EncodeInstr(sub)
			if err != nil {
				return nil, err
			}
			is[i] = w
		}
		return &WireInstr{Kind: wBlock, Is: is}, nil
	}
	return nil, fmt.Errorf("sefl: cannot serialize instruction type %T", ins)
}

// DecodeInstr rebuilds an instruction tree from its wire form. For bodies
// are resolved through the registry; an unregistered ref is an error (the
// receiving process is missing the model package that registers it).
func DecodeInstr(w *WireInstr) (Instr, error) {
	if w == nil {
		return nil, nil
	}
	switch w.Kind {
	case wNoOp:
		return NoOp{}, nil
	case wAllocate:
		lv, err := decodeLValue(w.LV)
		if err != nil {
			return nil, err
		}
		return Allocate{LV: lv, Size: w.Size}, nil
	case wDeallocate:
		lv, err := decodeLValue(w.LV)
		if err != nil {
			return nil, err
		}
		return Deallocate{LV: lv, Size: w.Size}, nil
	case wAssign:
		lv, err := decodeLValue(w.LV)
		if err != nil {
			return nil, err
		}
		e, err := DecodeExpr(w.E)
		if err != nil {
			return nil, err
		}
		return Assign{LV: lv, E: e}, nil
	case wCreateTag:
		e, err := DecodeExpr(w.E)
		if err != nil {
			return nil, err
		}
		return CreateTag{Name: w.Name, E: e}, nil
	case wDestroyTag:
		return DestroyTag{Name: w.Name}, nil
	case wConstrain:
		c, err := DecodeCond(w.C)
		if err != nil {
			return nil, err
		}
		return Constrain{C: c}, nil
	case wFail:
		return Fail{Msg: w.Name}, nil
	case wIf:
		c, err := DecodeCond(w.C)
		if err != nil {
			return nil, err
		}
		then, err := DecodeInstr(w.Then)
		if err != nil {
			return nil, err
		}
		els, err := DecodeInstr(w.Else)
		if err != nil {
			return nil, err
		}
		return If{C: c, Then: then, Else: els}, nil
	case wFor:
		body, err := lookupForBody(w.Ref, w.Arg)
		if err != nil {
			return nil, fmt.Errorf("sefl: decode For(%q): %w", w.Name, err)
		}
		return For{Pattern: w.Name, Body: body, Ref: w.Ref, Arg: w.Arg}, nil
	case wForward:
		return Forward{Port: w.Port}, nil
	case wFork:
		return Fork{Ports: w.Ports}, nil
	case wBlock:
		is := make([]Instr, len(w.Is))
		for i, sub := range w.Is {
			d, err := DecodeInstr(sub)
			if err != nil {
				return nil, err
			}
			is[i] = d
		}
		return Block{Is: is}, nil
	}
	return nil, fmt.Errorf("sefl: unknown wire instruction kind %d", w.Kind)
}

// EncodeExpr converts an expression to its wire form.
func EncodeExpr(e Expr) (*WireExpr, error) {
	switch v := e.(type) {
	case nil:
		return nil, nil
	case Num:
		return &WireExpr{Kind: wNum, V: v.V, W: v.W}, nil
	case Symbolic:
		return &WireExpr{Kind: wSymbolic, W: v.W, Name: v.Name}, nil
	case Ref:
		lv, err := encodeLValue(v.LV)
		if err != nil {
			return nil, err
		}
		return &WireExpr{Kind: wRef, LV: lv}, nil
	case Add:
		return encodeArith(wAdd, v.A, v.B)
	case Sub:
		return encodeArith(wSub, v.A, v.B)
	case TagVal:
		return &WireExpr{Kind: wTagVal, Name: v.Tag, Rel: v.Rel}, nil
	}
	return nil, fmt.Errorf("sefl: cannot serialize expression type %T", e)
}

func encodeArith(kind uint8, a, b Expr) (*WireExpr, error) {
	wa, err := EncodeExpr(a)
	if err != nil {
		return nil, err
	}
	wb, err := EncodeExpr(b)
	if err != nil {
		return nil, err
	}
	return &WireExpr{Kind: kind, A: wa, B: wb}, nil
}

// DecodeExpr rebuilds an expression from its wire form.
func DecodeExpr(w *WireExpr) (Expr, error) {
	if w == nil {
		return nil, nil
	}
	switch w.Kind {
	case wNum:
		return Num{V: w.V, W: w.W}, nil
	case wSymbolic:
		return Symbolic{W: w.W, Name: w.Name}, nil
	case wRef:
		lv, err := decodeLValue(w.LV)
		if err != nil {
			return nil, err
		}
		return Ref{LV: lv}, nil
	case wAdd, wSub:
		a, err := DecodeExpr(w.A)
		if err != nil {
			return nil, err
		}
		b, err := DecodeExpr(w.B)
		if err != nil {
			return nil, err
		}
		if w.Kind == wAdd {
			return Add{A: a, B: b}, nil
		}
		return Sub{A: a, B: b}, nil
	case wTagVal:
		return TagVal{Tag: w.Name, Rel: w.Rel}, nil
	}
	return nil, fmt.Errorf("sefl: unknown wire expression kind %d", w.Kind)
}

// EncodeCond converts a condition to its wire form.
func EncodeCond(c Cond) (*WireCond, error) {
	switch v := c.(type) {
	case nil:
		return nil, nil
	case Cmp:
		l, err := EncodeExpr(v.L)
		if err != nil {
			return nil, err
		}
		r, err := EncodeExpr(v.R)
		if err != nil {
			return nil, err
		}
		return &WireCond{Kind: wCmp, Op: uint8(v.Op), L: l, R: r}, nil
	case Prefix:
		e, err := EncodeExpr(v.E)
		if err != nil {
			return nil, err
		}
		return &WireCond{Kind: wPrefix, L: e, Val: v.Value, Len: v.Len, W: v.Width}, nil
	case Masked:
		e, err := EncodeExpr(v.E)
		if err != nil {
			return nil, err
		}
		return &WireCond{Kind: wMasked, L: e, Mask: v.Mask, Val: v.Val}, nil
	case MetaPresent:
		lv, err := encodeLValue(v.M)
		if err != nil {
			return nil, err
		}
		return &WireCond{Kind: wMetaPresent, M: lv}, nil
	case CAnd:
		cs, err := encodeConds(v.Cs)
		if err != nil {
			return nil, err
		}
		return &WireCond{Kind: wCAnd, Cs: cs}, nil
	case COr:
		if w := packOr(v.Cs); w != nil {
			return w, nil
		}
		cs, err := encodeConds(v.Cs)
		if err != nil {
			return nil, err
		}
		return &WireCond{Kind: wCOr, Cs: cs}, nil
	case CNot:
		sub, err := EncodeCond(v.C)
		if err != nil {
			return nil, err
		}
		return &WireCond{Kind: wCNot, C: sub}, nil
	case CBool:
		return &WireCond{Kind: wCBool, B: bool(v)}, nil
	}
	return nil, fmt.Errorf("sefl: cannot serialize condition type %T", c)
}

func encodeConds(cs []Cond) ([]*WireCond, error) {
	out := make([]*WireCond, len(cs))
	for i, c := range cs {
		w, err := EncodeCond(c)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// DecodeCond rebuilds a condition from its wire form.
func DecodeCond(w *WireCond) (Cond, error) {
	if w == nil {
		return nil, nil
	}
	switch w.Kind {
	case wCmp:
		l, err := DecodeExpr(w.L)
		if err != nil {
			return nil, err
		}
		r, err := DecodeExpr(w.R)
		if err != nil {
			return nil, err
		}
		return Cmp{Op: expr.CmpOp(w.Op), L: l, R: r}, nil
	case wPrefix:
		e, err := DecodeExpr(w.L)
		if err != nil {
			return nil, err
		}
		return Prefix{E: e, Value: w.Val, Len: w.Len, Width: w.W}, nil
	case wMasked:
		e, err := DecodeExpr(w.L)
		if err != nil {
			return nil, err
		}
		return Masked{E: e, Mask: w.Mask, Val: w.Val}, nil
	case wMetaPresent:
		lv, err := decodeLValue(w.M)
		if err != nil {
			return nil, err
		}
		m, ok := lv.(Meta)
		if !ok {
			return nil, fmt.Errorf("sefl: MetaPresent wire node carries a non-Meta l-value")
		}
		return MetaPresent{M: m}, nil
	case wCAnd, wCOr:
		cs := make([]Cond, len(w.Cs))
		for i, sub := range w.Cs {
			d, err := DecodeCond(sub)
			if err != nil {
				return nil, err
			}
			cs[i] = d
		}
		if w.Kind == wCAnd {
			return CAnd{Cs: cs}, nil
		}
		return COr{Cs: cs}, nil
	case wCNot:
		sub, err := DecodeCond(w.C)
		if err != nil {
			return nil, err
		}
		return CNot{C: sub}, nil
	case wCBool:
		return CBool(w.B), nil
	case wCOrPacked:
		return unpackOr(w)
	}
	return nil, fmt.Errorf("sefl: unknown wire condition kind %d", w.Kind)
}

func encodeLValue(lv LValue) (*WireLValue, error) {
	switch v := lv.(type) {
	case nil:
		return nil, nil
	case Hdr:
		return &WireLValue{Kind: wHdr, Tag: v.Off.Tag, Rel: v.Off.Rel, Size: v.Size, Name: v.Name}, nil
	case Meta:
		return &WireLValue{Kind: wMeta, Name: v.Name, Local: v.Local, Instance: v.Instance, Pinned: v.Pinned}, nil
	}
	return nil, fmt.Errorf("sefl: cannot serialize l-value type %T", lv)
}

func decodeLValue(w *WireLValue) (LValue, error) {
	if w == nil {
		return nil, nil
	}
	switch w.Kind {
	case wHdr:
		return Hdr{Off: Off{Tag: w.Tag, Rel: w.Rel}, Size: w.Size, Name: w.Name}, nil
	case wMeta:
		return Meta{Name: w.Name, Local: w.Local, Instance: w.Instance, Pinned: w.Pinned}, nil
	}
	return nil, fmt.Errorf("sefl: unknown wire l-value kind %d", w.Kind)
}
