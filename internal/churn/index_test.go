package churn

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/sefl"
	"symnet/internal/verify"
)

// historyIndex builds the dependency index the long way: every path's
// materialized history, entry by entry — History() for a source that ran
// in-process, the Summary's Ports for one that ran on a fleet.
func historyIndex(rep *verify.AllPairsReport) (map[core.PortRef]map[int]bool, map[string]map[int]bool) {
	visited := map[core.PortRef]map[int]bool{}
	elems := map[string]map[int]bool{}
	add := func(i int, hist []core.PortRef) {
		for _, pr := range hist {
			if pr.Out {
				if visited[pr] == nil {
					visited[pr] = map[int]bool{}
				}
				visited[pr][i] = true
			}
			if elems[pr.Elem] == nil {
				elems[pr.Elem] = map[int]bool{}
			}
			elems[pr.Elem][i] = true
		}
	}
	for i := range rep.Sources {
		if sum := rep.Summaries[i]; sum != nil {
			for _, p := range sum.Paths {
				add(i, p.Ports)
			}
			continue
		}
		for _, p := range rep.Results[i].Paths {
			add(i, p.History())
		}
	}
	return visited, elems
}

// liveIndex is the service's index without the sets a re-index emptied
// (dropFromIndex deletes a source from a set and leaves the set in place).
func liveIndex(s *Service) (map[core.PortRef]map[int]bool, map[string]map[int]bool) {
	visited := map[core.PortRef]map[int]bool{}
	for k, set := range s.visited {
		if len(set) > 0 {
			visited[k] = set
		}
	}
	elems := map[string]map[int]bool{}
	for k, set := range s.visitedElem {
		if len(set) > 0 {
			elems[k] = set
		}
	}
	return visited, elems
}

// indexFixture is a resident topology with a mixed delta script.
type indexFixture struct {
	name   string
	build  func(t *testing.T, runner dist.Runner) *Service
	script func(t *testing.T) []Delta
}

func departmentIndexFixture() indexFixture {
	d := datasets.NewDepartment(datasets.DefaultDepartment())
	return indexFixture{
		name: "department",
		build: func(t *testing.T, runner dist.Runner) *Service {
			fresh := datasets.NewDepartment(datasets.DefaultDepartment())
			sources, targets := fresh.AllPairs()
			svc := NewService(Config{
				Net: fresh.Net, Sources: sources, Targets: targets,
				Packet: sefl.NewTCPPacket(), Opts: core.Options{MaxHops: 64}, Runner: runner,
			})
			for name, fib := range fresh.FIBs {
				svc.RegisterRouter(name, fib)
			}
			for name, tbl := range fresh.MACTables {
				svc.RegisterSwitch(name, tbl)
			}
			return svc
		},
		// Two MAC deltas on each of three access switches with a route delta
		// on m1 after each switch, and one route delta on exit to close.
		script: func(t *testing.T) []Delta {
			var out []Delta
			for k, sw := range d.AccessSwitches[:3] {
				macs, err := GenMACDeltas(sw, d.MACTables[sw], 2, int64(k+1))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, macs...)
				routes, err := GenFIBDeltas("m1", d.FIBs["m1"], "198.18.0.0/15", k+1, 7)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, routes[k])
			}
			routes, err := GenFIBDeltas("exit", d.FIBs["exit"], "198.18.0.0/15", 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			return append(out, routes...)
		},
	}
}

func backboneIndexFixture() indexFixture {
	b := datasets.StanfordBackbone(4, 24)
	return indexFixture{
		name: "backbone",
		build: func(t *testing.T, runner dist.Runner) *Service {
			fresh := datasets.StanfordBackbone(4, 24)
			sources, targets := fresh.AllPairs()
			packet := sefl.Seq(
				sefl.NewIPPacket(),
				sefl.Constrain{C: sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: sefl.IPToNumber("10.0.0.0"), Len: 16}},
			)
			svc := NewService(Config{
				Net: fresh.Net, Sources: sources, Targets: targets,
				Packet: packet, Opts: core.Options{MaxHops: 64}, Runner: runner,
			})
			for name, fib := range fresh.FIBs {
				svc.RegisterRouter(name, fib)
			}
			return svc
		},
		// Route deltas on a zone router and on a backbone router, alternating,
		// inside the injected packet's destination space.
		script: func(t *testing.T) []Delta {
			zone, err := GenFIBDeltas("zone0", b.FIBs["zone0"], "10.0.0.0/16", 4, 5)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := GenFIBDeltas("bb1", b.FIBs["bb1"], "10.0.0.0/16", 4, 6)
			if err != nil {
				t.Fatal(err)
			}
			var out []Delta
			for i := range zone {
				out = append(out, zone[i], bb[i])
			}
			return out
		},
	}
}

// TestIndexMatchesHistories pins the dependency index to its definition:
// after Init and after every delta of a mixed script, visited and
// visitedElem hold exactly the sets that every path's materialized history
// yields, in-process and through a fleet (whose report carries Summaries),
// and the two runners' indexes are equal.
func TestIndexMatchesHistories(t *testing.T) {
	for _, fx := range []indexFixture{departmentIndexFixture(), backboneIndexFixture()} {
		t.Run(fx.name, func(t *testing.T) {
			svcs := []*Service{fx.build(t, dist.InProcess(2, nil))}
			if !testing.Short() {
				// A pool holds one network installed, so each fixture gets its own.
				svcs = append(svcs, fx.build(t, loopbackPool(t, 1, dist.Config{WorkersPerProc: 2})))
			}
			check := func(step string) {
				t.Helper()
				for k, svc := range svcs {
					gotPorts, gotElems := liveIndex(svc)
					wantPorts, wantElems := historyIndex(svc.report)
					if len(wantPorts) == 0 || len(wantElems) == 0 {
						t.Fatalf("%s runner %d: the histories visited no output port", step, k)
					}
					if !reflect.DeepEqual(gotPorts, wantPorts) {
						t.Fatalf("%s runner %d: visited differs from the histories' sets:\n got %v\nwant %v", step, k, gotPorts, wantPorts)
					}
					if !reflect.DeepEqual(gotElems, wantElems) {
						t.Fatalf("%s runner %d: visitedElem differs from the histories' sets:\n got %v\nwant %v", step, k, gotElems, wantElems)
					}
					if k == 0 {
						continue
					}
					if svc.report.Summaries[0] == nil {
						t.Fatalf("%s: the fleet's report carries no Summary", step)
					}
					if p0, e0 := liveIndex(svcs[0]); !reflect.DeepEqual(gotPorts, p0) || !reflect.DeepEqual(gotElems, e0) {
						t.Fatalf("%s: the fleet's index differs from the in-process one", step)
					}
				}
			}
			for _, svc := range svcs {
				if err := svc.Init(); err != nil {
					t.Fatal(err)
				}
			}
			check("init")
			dirtied := false
			for di, d := range fx.script(t) {
				for k, svc := range svcs {
					res, err := svc.apply(d)
					if err != nil {
						t.Fatalf("delta %d (%s) runner %d: %v", di, d, k, err)
					}
					dirtied = dirtied || res.DirtySources > 0
				}
				check(fmt.Sprintf("delta %d (%s)", di, d))
			}
			if !dirtied {
				t.Fatal("no delta re-verified a source, so no re-index was checked")
			}
		})
	}
}

// loopbackPool is a fleet of members loopback listeners, configured by cfg
// (its Workers are the listeners'), and closed with the test.
func loopbackPool(t *testing.T, members int, cfg dist.Config) *dist.Pool {
	t.Helper()
	for range members {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go dist.ServeListener(ln)
		cfg.Workers = append(cfg.Workers, ln.Addr().String())
	}
	pool, err := dist.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

// indexBytesPerNode is the committed budget of TestIndexSourceAllocs:
// bytes allocated per history-tree node by re-indexing one department
// source. Walking the nodes with one pointer set (core.HistoryPorts) reads
// ≈ 80; numbering them (core.HistoryTree) ≈ 170; materializing every path's
// history ≈ 740.
const indexBytesPerNode = 160

// TestIndexSourceAllocs keeps re-indexing proportional to what a source
// visited, without reading a clock: re-indexing the department source with
// the most paths must allocate at most indexBytesPerNode bytes per node of
// its history tree and fewer objects than it has paths. Materializing each
// path's history again — one slice per path, each as long as the path —
// fails both.
func TestIndexSourceAllocs(t *testing.T) {
	svc := departmentIndexFixture().build(t, dist.InProcess(1, nil))
	if err := svc.Init(); err != nil {
		t.Fatal(err)
	}
	src := 0
	for i, res := range svc.report.Results {
		if len(res.Paths) > len(svc.report.Results[src].Paths) {
			src = i
		}
	}
	res := svc.report.Results[src]
	_, nodes, _ := core.HistoryTree(res.Paths)
	entries := 0
	for _, p := range res.Paths {
		entries += len(p.History())
	}
	jr := &dist.JobResult{Result: res}
	reindex := func() {
		svc.dropFromIndex(src)
		svc.indexSource(src, jr)
	}
	reindex() // the sets the source belongs to exist from here on

	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		reindex()
	}
	runtime.ReadMemStats(&after)
	bytesPerNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(nodes))
	objects := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("re-indexing source %d (%d paths, %d history entries, %d nodes): %.0f bytes per node (budget %d), %.0f allocations",
		src, len(res.Paths), entries, len(nodes), bytesPerNode, indexBytesPerNode, objects)
	if bytesPerNode > indexBytesPerNode {
		t.Fatalf("%.0f bytes per history-tree node, budget %d", bytesPerNode, indexBytesPerNode)
	}
	if objects >= float64(len(res.Paths)) {
		t.Fatalf("%.0f allocations for %d paths: re-indexing allocates per path", objects, len(res.Paths))
	}
}
