package expr

// Structural fingerprints for the condition algebra. A fingerprint is a
// 128-bit hash of the syntactic structure of a condition — stable across
// processes and independent of where the condition was built. solver.Context
// chains the fingerprint of every condition it is asked to Add, so equal
// chains identify entire Add sequences. 128 bits keep accidental collisions
// out of reach for any realistic query volume, which matters because the
// satisfiability memo cache trusts fingerprint equality.

// Fp is a 128-bit structural fingerprint. The zero value is the fingerprint
// of the empty sequence.
type Fp struct{ Hi, Lo uint64 }

// Chain combines f with the next element's fingerprint, order-dependently:
// Chain(a).Chain(b) differs from Chain(b).Chain(a). The solver chains the
// fingerprints of asserted conditions so equal chain values identify (with
// overwhelming probability) identical assertion sequences — which a
// deterministic solver maps to identical answers and identical work.
func (f Fp) Chain(o Fp) Fp {
	return Fp{
		Hi: fmix64(f.Hi*0x9e3779b97f4a7c15 + o.Hi + 0x632be59bd9b4e019),
		Lo: fmix64(f.Lo*0xc2b2ae3d27d4eb4f + o.Lo + 0x165667b19e3779f9),
	}
}

// fmix64 is the MurmurHash3 64-bit finalizer.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9f109102a85
	x ^= x >> 33
	return x
}

// fpState accumulates two independent 64-bit hash streams.
type fpState struct{ hi, lo uint64 }

func (s *fpState) word(x uint64) {
	s.hi = (s.hi ^ fmix64(x+0x9e3779b97f4a7c15)) * 0x100000001b3
	s.lo = (s.lo ^ fmix64(x+0x2545f4914f6cdd1d)) * 0xc6a4a7935bd1e995
}

func (s *fpState) lin(l Lin) {
	s.word(uint64(l.Sym))
	s.word(l.Add)
	s.word(uint64(l.Width))
}

// type tags for condition variants (part of the fingerprint definition).
const (
	tagBool uint64 = iota + 1
	tagCmp
	tagMatch
	tagNot
	tagAnd
	tagOr
	tagInSet
)

func (s *fpState) cond(c Cond) {
	switch v := c.(type) {
	case Bool:
		s.word(tagBool)
		if v {
			s.word(1)
		} else {
			s.word(0)
		}
	case Cmp:
		s.word(tagCmp)
		s.word(uint64(v.Op))
		s.lin(v.L)
		s.lin(v.R)
	case Match:
		s.word(tagMatch)
		s.lin(v.L)
		s.word(v.Mask)
		s.word(v.Val)
	case Not:
		s.word(tagNot)
		s.cond(v.C)
	case And:
		s.word(tagAnd)
		s.word(uint64(len(v.Cs)))
		for _, sub := range v.Cs {
			s.cond(sub)
		}
	case Or:
		s.word(tagOr)
		s.word(uint64(len(v.Cs)))
		for _, sub := range v.Cs {
			s.cond(sub)
		}
	case InSet:
		// The table's own fingerprint is precomputed at construction, so
		// hashing a packed guard is O(1) in the table size — the point of
		// the representation (an Or-tree re-hashes every atom per Add).
		s.word(tagInSet)
		s.lin(v.L)
		s.word(v.T.fp.Hi)
		s.word(v.T.fp.Lo)
	default:
		panic("expr: unknown condition type in HashCond")
	}
}

// HashCond returns the structural fingerprint of a condition.
func HashCond(c Cond) Fp {
	s := fpState{hi: 0xcbf29ce484222325, lo: 0x84222325cbf29ce4}
	s.cond(c)
	return Fp{Hi: fmix64(s.hi), Lo: fmix64(s.lo)}
}
