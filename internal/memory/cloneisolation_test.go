package memory

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"symnet/internal/expr"
)

// shadowMem is a plain-Go-map reference model of Mem's visible behaviour:
// top-of-stack value/size per header offset and metadata key, stack depths,
// and current tag values.
type shadowMem struct {
	hdr  map[int64][]shadowLayer
	meta map[MetaKey][]shadowLayer
	tags map[string][]int64
}

type shadowLayer struct {
	size int
	val  expr.Lin
	set  bool
}

func newShadow() *shadowMem {
	return &shadowMem{
		hdr:  map[int64][]shadowLayer{},
		meta: map[MetaKey][]shadowLayer{},
		tags: map[string][]int64{},
	}
}

func (s *shadowMem) clone() *shadowMem {
	n := newShadow()
	for k, v := range s.hdr {
		n.hdr[k] = append([]shadowLayer(nil), v...)
	}
	for k, v := range s.meta {
		n.meta[k] = append([]shadowLayer(nil), v...)
	}
	for k, v := range s.tags {
		n.tags[k] = append([]int64(nil), v...)
	}
	return n
}

// step applies one random operation to both the Mem under test and the
// shadow, checking that Mem's error/value behaviour matches the shadow's
// prediction. It returns an error instead of failing directly so it can run
// on non-test goroutines.
func step(tag string, rng *rand.Rand, m *Mem, s *shadowMem) error {
	offs := []int64{0, 32, 64, 96}
	keys := []MetaKey{{Name: "a", Instance: GlobalScope}, {Name: "b", Instance: 1}, {Name: "c", Instance: 2}}
	tags := []string{"L2", "L3"}
	switch rng.Intn(8) {
	case 0: // allocate header
		off := offs[rng.Intn(len(offs))]
		err := m.AllocateHdr(off, 32)
		stack := s.hdr[off]
		wantOK := len(stack) == 0 || stack[len(stack)-1].size == 32
		if (err == nil) != wantOK {
			return fmt.Errorf("%s: AllocateHdr(%d) err=%v, shadow wantOK=%v", tag, off, err, wantOK)
		}
		if err == nil {
			s.hdr[off] = append(stack, shadowLayer{size: 32})
		}
	case 1: // assign header
		off := offs[rng.Intn(len(offs))]
		v := expr.Const(uint64(rng.Intn(1000)), 32)
		err := m.AssignHdr(off, 32, v)
		stack := s.hdr[off]
		if wantOK := len(stack) > 0; (err == nil) != wantOK {
			return fmt.Errorf("%s: AssignHdr(%d) err=%v, shadow wantOK=%v", tag, off, err, wantOK)
		}
		if err == nil {
			stack[len(stack)-1] = shadowLayer{size: 32, val: v, set: true}
		}
	case 2: // read header
		off := offs[rng.Intn(len(offs))]
		v, err := m.ReadHdr(off, 32)
		stack := s.hdr[off]
		wantOK := len(stack) > 0 && stack[len(stack)-1].set
		if (err == nil) != wantOK {
			return fmt.Errorf("%s: ReadHdr(%d) err=%v, shadow wantOK=%v", tag, off, err, wantOK)
		}
		if err == nil && v != stack[len(stack)-1].val {
			return fmt.Errorf("%s: ReadHdr(%d)=%v, shadow says %v", tag, off, v, stack[len(stack)-1].val)
		}
	case 3: // deallocate header
		off := offs[rng.Intn(len(offs))]
		err := m.DeallocateHdr(off, -1)
		stack := s.hdr[off]
		if wantOK := len(stack) > 0; (err == nil) != wantOK {
			return fmt.Errorf("%s: DeallocateHdr(%d) err=%v, shadow wantOK=%v", tag, off, err, wantOK)
		}
		if err == nil {
			s.hdr[off] = stack[:len(stack)-1]
		}
	case 4: // allocate + assign metadata
		k := keys[rng.Intn(len(keys))]
		if err := m.AllocateMeta(k, 16); err != nil {
			return fmt.Errorf("%s: AllocateMeta(%s): %v", tag, k, err)
		}
		s.meta[k] = append(s.meta[k], shadowLayer{size: 16})
		v := expr.Const(uint64(rng.Intn(100)), 16)
		if err := m.AssignMeta(k, v); err != nil {
			return fmt.Errorf("%s: AssignMeta(%s): %v", tag, k, err)
		}
		stack := s.meta[k]
		stack[len(stack)-1] = shadowLayer{size: 16, val: v, set: true}
	case 5: // read metadata
		k := keys[rng.Intn(len(keys))]
		v, err := m.ReadMeta(k)
		stack := s.meta[k]
		wantOK := len(stack) > 0 && stack[len(stack)-1].set
		if (err == nil) != wantOK {
			return fmt.Errorf("%s: ReadMeta(%s) err=%v, shadow wantOK=%v", tag, k, err, wantOK)
		}
		if err == nil && v != stack[len(stack)-1].val {
			return fmt.Errorf("%s: ReadMeta(%s)=%v, shadow says %v", tag, k, v, stack[len(stack)-1].val)
		}
	case 6: // create tag
		name := tags[rng.Intn(len(tags))]
		v := int64(rng.Intn(512))
		m.CreateTag(name, v)
		s.tags[name] = append(s.tags[name], v)
	case 7: // destroy tag
		name := tags[rng.Intn(len(tags))]
		err := m.DestroyTag(name)
		stack := s.tags[name]
		if wantOK := len(stack) > 0; (err == nil) != wantOK {
			return fmt.Errorf("%s: DestroyTag(%s) err=%v, shadow wantOK=%v", tag, name, err, wantOK)
		}
		if err == nil {
			s.tags[name] = stack[:len(stack)-1]
		}
	}
	return nil
}

// verify does a full read-back comparison of a Mem against its shadow.
func verify(t *testing.T, tag string, m *Mem, s *shadowMem) {
	t.Helper()
	live := 0
	for off, stack := range s.hdr {
		if len(stack) == 0 {
			continue
		}
		live++
		top := stack[len(stack)-1]
		if !hdrAllocated(m, off, top.size) {
			t.Fatalf("%s: hdr %d missing", tag, off)
		}
		if got := hdrStackDepth(m, off); got != len(stack) {
			t.Fatalf("%s: hdr %d depth=%d, shadow %d", tag, off, got, len(stack))
		}
	}
	if got := len(m.Fields()); got != live {
		t.Fatalf("%s: %d live fields, shadow %d", tag, got, live)
	}
	for k, stack := range s.meta {
		if exists := m.MetaExists(k); exists != (len(stack) > 0) {
			t.Fatalf("%s: meta %s exists=%v, shadow %v", tag, k, exists, len(stack) > 0)
		}
	}
	gotTags := tags(m)
	for name, stack := range s.tags {
		v, ok := m.Tag(name)
		if ok != (len(stack) > 0) {
			t.Fatalf("%s: tag %s ok=%v, shadow %v", tag, name, ok, len(stack) > 0)
		}
		if ok && v != stack[len(stack)-1] {
			t.Fatalf("%s: tag %s=%d, shadow %d", tag, name, v, stack[len(stack)-1])
		}
		if ok && gotTags[name] != v {
			t.Fatalf("%s: tags(m)[%s]=%d, Tag says %d", tag, name, gotTags[name], v)
		}
	}
}

// TestMemCloneIsolationRandomized forks a randomly-built Mem and drives
// both forks (and the original) with independent random operation
// sequences concurrently, verifying each against its own shadow model.
// Under -race this proves mutation never writes through shared structure.
func TestMemCloneIsolationRandomized(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := new(Mem)
			s := newShadow()
			for i := 0; i < 30; i++ {
				if err := step("build", rng, m, s); err != nil {
					t.Fatal(err)
				}
			}
			forkA, forkB := m.CloneInto(new(Mem)), m.CloneInto(new(Mem))
			shadowA, shadowB := s.clone(), s.clone()
			var wg sync.WaitGroup
			wg.Add(2)
			var errA, errB error
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*2 + 1))
				for i := 0; i < 60 && errA == nil; i++ {
					errA = step("forkA", rng, forkA, shadowA)
				}
			}()
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*2 + 2))
				for i := 0; i < 60 && errB == nil; i++ {
					errB = step("forkB", rng, forkB, shadowB)
				}
			}()
			wg.Wait()
			if errA != nil {
				t.Fatal(errA)
			}
			if errB != nil {
				t.Fatal(errB)
			}
			verify(t, "forkA", forkA, shadowA)
			verify(t, "forkB", forkB, shadowB)
			// The original must be exactly as it was before the forks ran.
			verify(t, "base", m, s)
		})
	}
}
