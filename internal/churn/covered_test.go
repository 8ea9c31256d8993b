package churn

// Route deltas that move no address: a route inserted inside (or deleted
// from inside) a less-specific route to the same port gives ports new rows
// but the same span tables, so a compiled service, traced or not, installs
// the new guards and re-verifies no source.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/sefl"
	"symnet/internal/tables"
	"symnet/internal/verify"
)

// coveredStep is one delta of coveredStream; covered marks the ones that
// move no address, and patched is how many of rt's ports they give new
// rows.
type coveredStep struct {
	d       Delta
	covered bool
	patched int
}

// coveredStream is a delta stream on the differential fixture whose covered
// route deltas sit in the middle and at the last position. 10.1.2.128/25
// lies under 10.1.2.0/24 on port 2, and 10.1.0.0/16 (port 1), 10.0.0.0/8
// and the default (port 0) gain it as an exclusion: all three ports get new
// rows. 10.5.0.0/16 lies under 10.0.0.0/8 on port 0, which only port 0's
// rows see.
func coveredStream(t *testing.T) []coveredStep {
	t.Helper()
	mds, err := GenMACDeltas("sw", diffMACs(), 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	return []coveredStep{
		{d: Delta{Elem: "rt", Op: OpInsert, Prefix: "10.1.2.128/25", Port: 2}, covered: true, patched: 3},
		{d: Delta{Elem: "rt", Op: OpModify, Prefix: "30.40.0.0/16", Port: 1}},
		{d: mds[0]},
		{d: Delta{Elem: "rt", Op: OpDelete, Prefix: "10.1.2.128/25"}, covered: true, patched: 3},
		{d: Delta{Elem: "rt", Op: OpInsert, Prefix: "10.5.0.0/16", Port: 0}, covered: true, patched: 1},
	}
}

// TestCoveredRouteDeltasDirtyNothing: traced and untraced, in process and
// on a two-member fleet, every covered delta patches its ports and dirties
// no source, every other route delta dirties both, and the report stays
// byte-identical to a from-scratch verification after each delta. A trace
// line renders a table as its span table, so a trace shows no covered
// delta.
func TestCoveredRouteDeltasDirtyNothing(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		t.Run(fmt.Sprintf("fleet=%v", fleet), func(t *testing.T) {
			if fleet && testing.Short() {
				t.Skip("opens TCP sessions")
			}
			for _, trace := range []bool{false, true} {
				t.Run(fmt.Sprintf("trace=%v", trace), func(t *testing.T) {
					runner := dist.InProcess(2, nil)
					if fleet {
						runner = loopbackPool(t, 2, dist.Config{WorkersPerProc: 1})
					}
					svc := coveredService(t, core.Options{Trace: trace}, runner)
					for i, step := range coveredStream(t) {
						res, err := svc.apply(step.d)
						if err != nil {
							t.Fatalf("delta %d (%s): %v", i, step.d, err)
						}
						switch {
						case step.covered && (res.DirtySources != 0 || res.PortsPatched != step.patched):
							t.Fatalf("covered delta %d (%s): %d ports patched, %d sources dirty; want %d and 0", i, step.d, res.PortsPatched, res.DirtySources, step.patched)
						case !step.covered && step.d.Prefix != "" && res.DirtySources != 2:
							t.Fatalf("delta %d (%s) moves addresses but dirtied %d sources, want 2", i, step.d, res.DirtySources)
						}
						checkFresh(t, fmt.Sprintf("delta %d (%s)", i, step.d), svc, fleet)
					}
				})
			}
		})
	}
}

// TestCoveredRouteDeltaDirtiesWhenRowsShow: under the AST interpreter, which
// chains a table's Or-tree (its rows) into the constraint fingerprint, the
// first covered delta moves every source's result, though the compiled
// results hold: a service would have to re-verify every visitor of the
// ports it patches, which is why it refuses ASTInterp. (A trace line shows
// span tables, so the traced case is TestCoveredRouteDeltasDirtyNothing's.)
func TestCoveredRouteDeltaDirtiesWhenRowsShow(t *testing.T) {
	opts := core.Options{ASTInterp: true}
	t.Run(fmt.Sprintf("trace=%v,ast=%v", opts.Trace, opts.ASTInterp), func(t *testing.T) {
		step := coveredStream(t)[0]
		pfx, plen, err := tables.ParsePrefix(step.d.Prefix)
		if err != nil {
			t.Fatal(err)
		}
		after := append(diffFIB(), tables.Route{Prefix: pfx, Len: plen, Port: step.d.Port})
		verifyFIB := func(fib tables.FIB, opts core.Options) []string {
			net := buildDiffNet(t, fib, diffMACs())
			rep, err := verify.AllPairsReachability(net, coveredSources, coveredPacket(), coveredTargets, opts, dist.InProcess(2, nil))
			if err != nil {
				t.Fatalf("%s: %v", step.d, err)
			}
			out := make([]string, len(rep.Results))
			for i, r := range rep.Results {
				out[i] = summaryText(dist.Summarize(r))
			}
			return out
		}
		ast0, ast1 := verifyFIB(diffFIB(), opts), verifyFIB(after, opts)
		comp0, comp1 := verifyFIB(diffFIB(), core.Options{}), verifyFIB(after, core.Options{})
		for i := range coveredSources {
			if ast0[i] == ast1[i] {
				t.Errorf("%s: source %d's AST-interpreted result did not move", step.d, i)
			}
			if comp0[i] != comp1[i] {
				t.Errorf("%s: source %d's compiled result moved:\n before %s\n after %s", step.d, i, comp0[i], comp1[i])
			}
		}
	})
}

// TestServeRefusesASTInterp: the AST interpreter chains a table's Or-tree
// into the constraint fingerprint, so a covered delta would move its
// visitors' results; a service under it refuses to initialize, before it
// verifies anything.
func TestServeRefusesASTInterp(t *testing.T) {
	svc := NewService(Config{
		Net:     buildDiffNet(t, diffFIB(), diffMACs()),
		Sources: coveredSources,
		Targets: coveredTargets,
		Packet:  coveredPacket(),
		Opts:    core.Options{ASTInterp: true},
		Runner:  dist.InProcess(2, nil),
	})
	if err := svc.Init(); err == nil || !strings.Contains(err.Error(), "ASTInterp") {
		t.Fatalf("Init under ASTInterp: %v, want a refusal naming it", err)
	}
	if svc.current() != nil {
		t.Fatal("a refused Init published a report")
	}
}

var (
	coveredSources = []core.PortRef{{Elem: "sw", Port: 1}, {Elem: "sw", Port: 2}}
	coveredTargets = []string{"hosts", "net0", "net1", "net2"}
)

// coveredPacket is a TCP packet bound for 20.0.0.0/8, which rt routes to
// port 1: the paths that try rt's ports 0 and 2 fail there, with those
// guards' messages.
func coveredPacket() sefl.Instr {
	return sefl.Seq(sefl.NewTCPPacket(),
		sefl.Constrain{C: sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: sefl.IPToNumber("20.0.0.0"), Len: 8}})
}

// coveredService is an initialized service on the differential fixture.
func coveredService(t *testing.T, opts core.Options, runner dist.Runner) *Service {
	t.Helper()
	svc := NewService(Config{
		Net:     buildDiffNet(t, diffFIB(), diffMACs()),
		Sources: coveredSources,
		Targets: coveredTargets,
		Packet:  coveredPacket(),
		Opts:    opts,
		Runner:  runner,
	})
	svc.RegisterRouter("rt", diffFIB())
	svc.RegisterSwitch("sw", diffMACs())
	if err := svc.Init(); err != nil {
		t.Fatal(err)
	}
	return svc
}

// checkFresh compares svc's report with an in-process from-scratch
// verification of a network built from its current tables: result for
// result in process, summary for summary on a fleet.
func checkFresh(t *testing.T, step string, svc *Service, fleet bool) {
	t.Helper()
	net := buildDiffNet(t, slices.Clone(svc.routers["rt"]), slices.Clone(svc.switches["sw"]))
	fresh, err := verify.AllPairsReachability(net, coveredSources, coveredPacket(), coveredTargets, svc.cfg.Opts, dist.InProcess(2, nil))
	if err != nil {
		t.Fatalf("%s: fresh verification: %v", step, err)
	}
	if !fleet {
		compareReports(t, step, svc.report, fresh)
		return
	}
	if !slices.EqualFunc(svc.report.Reachable, fresh.Reachable, slices.Equal) || !slices.EqualFunc(svc.report.PathCount, fresh.PathCount, slices.Equal) {
		t.Fatalf("%s: matrices differ from a fresh verification", step)
	}
	for i := range fresh.Results {
		if got, want := summaryText(svc.report.Summaries[i]), summaryText(dist.Summarize(fresh.Results[i])); got != want {
			t.Fatalf("%s: source %d summary differs from a fresh verification:\n got %s\nwant %s", step, i, got, want)
		}
	}
}

// summaryText renders every field of a summary.
func summaryText(s *dist.Summary) string {
	var b strings.Builder
	for _, p := range s.Paths {
		fmt.Fprintf(&b, "#%d %v %q %v %q %v\n", p.ID, p.Status, p.FailMsg, p.Ports, p.Trace, p.CtxFp)
	}
	fmt.Fprintf(&b, "stats %+v", s.Stats)
	return b.String()
}
