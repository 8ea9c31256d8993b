package core_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/expr"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// refutedCase is one network and the sources it is queried from.
type refutedCase struct {
	name    string
	net     *core.Network
	sources []core.PortRef
	packet  sefl.Instr
}

func refutedCases() []refutedCase {
	d := datasets.NewDepartment(datasets.DefaultDepartment())
	dSrc, _ := d.AllPairs()
	bb := datasets.StanfordBackbone(14, 300)
	bSrc, _ := bb.AllPairs()
	return []refutedCase{
		{"department", d.Net, dSrc, d.OfficePacket(false)},
		{"backbone 14x300", bb.Net, bSrc, sefl.NewIPPacket()},
	}
}

// ctxImage renders what a reader sees of a context at the end of a path:
// fingerprint, Unsat, PendingOrs and the domain of every packet field.
func ctxImage(p *core.Path, c *solver.Context) string {
	fp := c.Fingerprint()
	s := fmt.Sprintf("fp=%x.%x unsat=%v pend=%d", fp.Hi, fp.Lo, c.Unsat(), c.PendingOrs())
	for _, f := range p.Mem.Fields() {
		if f.Set {
			s += fmt.Sprintf(" @%d/%d=%s", f.Off, f.Size, c.Domain(f.Val))
		}
	}
	return s
}

// TestRefutedPathContextEqualsEager checks every path whose output-port
// guard refuted its departure, from every all-pairs source of the default
// department and of the 14x300 backbone: the context Ctx builds from the
// frozen departing context is the one a clone that asserted the guard
// leaves, as a traced run (which runs every port's code whole on a clone of
// its own) has it; CtxFp is its fingerprint; reading changes neither the
// run's stats nor the frozen context; and concurrent readers of every
// path's context pass under -race.
func TestRefutedPathContextEqualsEager(t *testing.T) {
	for _, tc := range refutedCases() {
		refuted := 0
		for _, src := range tc.sources {
			res, err := core.Run(tc.net, src, tc.packet, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			eager, err := core.Run(tc.net, src, tc.packet, core.Options{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Paths) != len(eager.Paths) {
				t.Fatalf("%s %s: %d paths, traced %d", tc.name, src, len(res.Paths), len(eager.Paths))
			}
			stats := res.Stats
			type frozenImage struct {
				fp    expr.Fp
				unsat bool
				pend  int
			}
			frozen := map[*solver.Context]frozenImage{}
			for i, p := range res.Paths {
				kept, isRefuted := core.Kept(p)
				if !isRefuted {
					if p.Ctx() != kept {
						t.Fatalf("%s %s path %d: Ctx is not the context the path keeps", tc.name, src, p.ID)
					}
					continue
				}
				refuted++
				frozen[kept] = frozenImage{kept.Fingerprint(), kept.Unsat(), kept.PendingOrs()}
				ref := eager.Paths[i]
				if p.Status != ref.Status || p.FailMsg != ref.FailMsg || !slices.Equal(p.History(), ref.History()) {
					t.Fatalf("%s %s path %d: %v %q %v, traced %v %q %v", tc.name, src, p.ID, p.Status, p.FailMsg, p.History(), ref.Status, ref.FailMsg, ref.History())
				}
				c := p.Ctx()
				if got, want := ctxImage(p, c), ctxImage(ref, ref.Ctx()); got != want {
					t.Fatalf("%s %s path %d: context\n%s\nwant the eager\n%s", tc.name, src, p.ID, got, want)
				}
				if p.CtxFp() != c.Fingerprint() {
					t.Fatalf("%s %s path %d: CtxFp differs from Ctx().Fingerprint()", tc.name, src, p.ID)
				}
				if !c.Unsat() {
					t.Fatalf("%s %s path %d: a refuted guard left its context satisfiable", tc.name, src, p.ID)
				}
			}

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, p := range res.Paths {
						c := p.Ctx()
						c.Model()
						c.Sat()
						if p.CtxFp() != c.Fingerprint() {
							t.Errorf("path %d: CtxFp differs from Ctx().Fingerprint()", p.ID)
						}
					}
				}()
			}
			wg.Wait()
			if res.Stats != stats {
				t.Fatalf("%s %s: reading the paths moved the run's stats: %+v, were %+v", tc.name, src, res.Stats, stats)
			}
			for c, was := range frozen {
				if now := (frozenImage{c.Fingerprint(), c.Unsat(), c.PendingOrs()}); now != was {
					t.Fatalf("%s %s: reading moved a frozen departing context: %+v, was %+v", tc.name, src, now, was)
				}
			}
		}
		t.Logf("%s: %d refuted paths over %d sources", tc.name, refuted, len(tc.sources))
		if refuted == 0 {
			t.Fatalf("%s: no path was refuted at its departure", tc.name)
		}
	}
}
