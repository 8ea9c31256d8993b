package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"symnet"
	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/models"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// deptOptions is what Session, cmd/symnet and cmd/symnetd run the department
// with today: the zero Options plus the hop bound, one worker. A later
// change that flips a default moves these workloads; nothing here opts in.
func deptOptions() symnet.Options { return symnet.Options{MaxHops: 64, Workers: 1} }

// dept is the paper-scale department (15 access switches, 6000 MACs, 400
// routes) and its all-pairs query, shared by three workloads. The generator
// itself takes no randomness, so the seed decides the order of the sources:
// the same sixteen explorations, issued in a seed-dependent order.
type dept struct {
	cfg     datasets.DepartmentConfig
	d       *datasets.Department
	sources []core.PortRef
	targets []string
	want    matrix // filled by reference
}

func (x *dept) generate(seed int64) error {
	x.cfg = datasets.DefaultDepartment()
	x.cfg.Seed = seed
	x.d = datasets.NewDepartment(x.cfg)
	x.sources, x.targets = x.d.AllPairs()
	rand.New(rand.NewSource(seed)).Shuffle(len(x.sources), func(i, j int) {
		x.sources[i], x.sources[j] = x.sources[j], x.sources[i]
	})
	return nil
}

// jobList is the canonical form of the query: one line per source.
func (x *dept) jobList() []byte {
	var b bytes.Buffer
	for _, s := range x.sources {
		fmt.Fprintf(&b, "%s -> %s\n", s, strings.Join(x.targets, ","))
	}
	return b.Bytes()
}

func packet() sefl.Instr { return sefl.NewTCPPacket() }

// matrix is the observable part of an all-pairs report.
type matrix struct {
	reachable [][]bool
	paths     [][]int
}

func matrixOf(rep *symnet.AllPairsReport) matrix {
	return matrix{reachable: rep.Reachable, paths: rep.PathCount}
}

// equal compares without allocating, so it can run inside a timed pass.
func (m matrix) equal(o matrix) bool {
	if len(m.paths) != len(o.paths) || len(m.reachable) != len(o.reachable) {
		return false
	}
	for i := range m.paths {
		if len(m.paths[i]) != len(o.paths[i]) || len(m.reachable[i]) != len(o.reachable[i]) {
			return false
		}
		for j := range m.paths[i] {
			if m.paths[i][j] != o.paths[i][j] || m.reachable[i][j] != o.reachable[i][j] {
				return false
			}
		}
	}
	return true
}

// cells counts reachable and unreachable pairs.
func (m matrix) cells() (reached, unreached int) {
	for _, row := range m.reachable {
		for _, ok := range row {
			if ok {
				reached++
			} else {
				unreached++
			}
		}
	}
	return reached, unreached
}

//go:embed testdata/allpairs_dept.golden
var deptGolden string

// goldenText renders a matrix by source and target name, sources sorted, so
// the file does not depend on the seed's source order.
func goldenText(sources []core.PortRef, targets []string, m matrix) string {
	lines := make([]string, 0, len(sources)*len(targets))
	for i, s := range sources {
		for j, t := range targets {
			lines = append(lines, fmt.Sprintf("%s %s %t %d", s, t, m.reachable[i][j], m.paths[i][j]))
		}
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}

// recompute answers the all-pairs question one source at a time on a
// freshly built department with the AST interpreter, the engine's reference
// semantics.
func (x *dept) recompute() (matrix, error) {
	fresh := datasets.NewDepartment(x.cfg)
	opts := deptOptions()
	opts.ASTInterp = true
	var m matrix
	for _, src := range x.sources {
		res, err := core.Run(fresh.Net, src, packet(), opts)
		if err != nil {
			return m, fmt.Errorf("reference run from %s: %w", src, err)
		}
		reach := make([]bool, len(x.targets))
		count := make([]int, len(x.targets))
		for j, t := range x.targets {
			count[j] = len(res.DeliveredAt(t, -1))
			reach[j] = count[j] > 0
		}
		m.reachable = append(m.reachable, reach)
		m.paths = append(m.paths, count)
	}
	return m, nil
}

// referenceMatrix sets the expected matrix from recompute and holds it
// against the committed golden file.
func (x *dept) referenceMatrix() (err error) {
	if x.want, err = x.recompute(); err != nil {
		return err
	}
	if goldenText(x.sources, x.targets, x.want) != deptGolden {
		return fmt.Errorf("reference all-pairs matrix differs from testdata/allpairs_dept.golden")
	}
	return nil
}

// rebuild models a fresh department from the given tables, the from-scratch
// side of the serve_churn end check.
func (x *dept) rebuild(routers map[string]tables.FIB, switches map[string]tables.MACTable) (*datasets.Department, error) {
	fresh := datasets.NewDepartment(x.cfg)
	for name, fib := range routers {
		e, ok := fresh.Net.Element(name)
		if !ok {
			return nil, fmt.Errorf("rebuild: no element %q", name)
		}
		if err := models.Router(e, fib, models.Egress); err != nil {
			return nil, err
		}
	}
	for name, tbl := range switches {
		e, ok := fresh.Net.Element(name)
		if !ok {
			return nil, fmt.Errorf("rebuild: no element %q", name)
		}
		if err := models.Switch(e, tbl, models.Egress); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

// digest hashes every field of a result summary that the fleet carries over
// the wire, without allocating: two summaries with equal digests are the
// same bytes for the purposes of the byte-identity suites in internal/dist.
func digest(s *dist.Summary) uint64 {
	h := fnv64(14695981039346656037)
	st := s.Stats
	h.num(st.Paths, st.Delivered, st.Failed, st.Looped, st.Pruned, st.Hops, st.Symbols,
		st.Solver.Adds, st.Solver.SatChecks, st.Solver.Branches, st.Solver.Models)
	for i := range s.Paths {
		p := &s.Paths[i]
		h.num(p.ID, int(p.Status), int(p.CtxFp.Hi), int(p.CtxFp.Lo), len(p.Ports), len(p.Trace))
		h.str(p.FailMsg)
		for _, ref := range p.Ports {
			out := 0
			if ref.Out {
				out = 1
			}
			h.str(ref.Elem)
			h.num(ref.Port, out)
		}
		for _, line := range p.Trace {
			h.str(line)
		}
	}
	return uint64(h)
}

// fnv64 is FNV-1a over integers and length-prefixed strings.
type fnv64 uint64

func (h *fnv64) byte(b byte) { *h = (*h ^ fnv64(b)) * 1099511628211 }

func (h *fnv64) num(vs ...int) {
	for _, v := range vs {
		for i := 0; i < 64; i += 8 {
			h.byte(byte(uint64(v) >> i))
		}
	}
}

func (h *fnv64) str(s string) {
	h.num(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}
