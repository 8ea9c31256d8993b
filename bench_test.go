// Benchmarks regenerating the paper's tables and figures. Each benchmark
// corresponds to one experiment; cmd/symbench prints the full paper-shaped
// rows, and ./benchmark (BENCHMARK.json) is the measured harness. Run with:
//
//	go test -bench=. -benchmem
package symnet

import (
	"runtime"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/experiments"
	"symnet/internal/hsa"
	"symnet/internal/minic"
	"symnet/internal/models"
	"symnet/internal/sefl"
	"symnet/internal/verify"
)

// --- Table 1: Klee-style execution of the TCP-options code ---

func benchTable1(b *testing.B, length int) {
	prog := minic.OptionsProgram(length, minic.DefaultASAConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := minic.Run(prog, minic.Limits{}, nil)
		if res.Exhausted {
			b.Fatal("budget exhausted")
		}
	}
}

func BenchmarkTable1KleeOptionsLen1(b *testing.B) { benchTable1(b, 1) }
func BenchmarkTable1KleeOptionsLen3(b *testing.B) { benchTable1(b, 3) }
func BenchmarkTable1KleeOptionsLen5(b *testing.B) { benchTable1(b, 5) }
func BenchmarkTable1KleeOptionsLen7(b *testing.B) { benchTable1(b, 7) }

// --- Fig. 8: switch model scaling ---

func benchSwitch(b *testing.B, entries int, style models.Style) {
	tbl := datasets.SwitchTable(entries, 20, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := core.NewNetwork()
		sw := net.AddElement("SW", "switch", 1, 20)
		if err := models.Switch(sw, tbl, style); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(net, core.PortRef{Elem: "SW", Port: 0}, sefl.NewEthernetPacket(), core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SwitchBasic1k(b *testing.B)    { benchSwitch(b, 1000, models.Basic) }
func BenchmarkFig8SwitchIngress1k(b *testing.B)  { benchSwitch(b, 1000, models.Ingress) }
func BenchmarkFig8SwitchEgress1k(b *testing.B)   { benchSwitch(b, 1000, models.Egress) }
func BenchmarkFig8SwitchIngress20k(b *testing.B) { benchSwitch(b, 20000, models.Ingress) }
func BenchmarkFig8SwitchEgress20k(b *testing.B)  { benchSwitch(b, 20000, models.Egress) }
func BenchmarkFig8SwitchEgress480k(b *testing.B) { benchSwitch(b, 480000, models.Egress) }

// --- Table 2: core-router analysis ---

func benchRouter(b *testing.B, prefixes int, style models.Style) {
	fib := datasets.CoreFIB(prefixes, 16, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunRouterModel(fib, prefixes, 16, style)
		if err != nil {
			b.Fatal(err)
		}
		_ = row
	}
}

func BenchmarkTable2RouterBasic1600(b *testing.B)    { benchRouter(b, 1600, models.Basic) }
func BenchmarkTable2RouterIngress1600(b *testing.B)  { benchRouter(b, 1600, models.Ingress) }
func BenchmarkTable2RouterEgress1600(b *testing.B)   { benchRouter(b, 1600, models.Egress) }
func BenchmarkTable2RouterEgress62500(b *testing.B)  { benchRouter(b, 62500, models.Egress) }
func BenchmarkTable2RouterEgress188500(b *testing.B) { benchRouter(b, 188500, models.Egress) }

// --- Table 3: HSA vs SymNet on the Stanford-like backbone ---

func BenchmarkTable3SymNet(b *testing.B) {
	bb := datasets.StanfordBackbone(14, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(bb.Net, core.PortRef{Elem: bb.Zones[0], Port: 2}, sefl.NewIPPacket(), core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3HSA(b *testing.B) {
	bb := datasets.StanfordBackbone(14, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.HNet.Reach(hsa.PortRef{Box: bb.Zones[0], Port: 2},
			hsa.Space{hsa.NewRegion(hsa.FullCube)}, 32, 64)
	}
}

// --- Table 4: options properties (SymNet side) ---

func BenchmarkTable4SymNetOptions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 10 / §8.4: Split-TCP scenarios ---

func BenchmarkSplitTCPScenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SplitTCP(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 11 / §8.5: department network ---

func BenchmarkDepartmentOfficeInject(b *testing.B) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{
		NumAccessSwitches: 15, HostsPerSwitch: 400, Routes: 400, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(d.Net, core.PortRef{Elem: "asw0", Port: 1}, d.OfficePacket(false), core.Options{MaxHops: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDepartmentInbound(b *testing.B) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{
		NumAccessSwitches: 15, HostsPerSwitch: 400, Routes: 400, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(d.Net, core.PortRef{Elem: "exit", Port: 1}, sefl.NewTCPPacket(), core.Options{MaxHops: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel all-pairs: the multicore claim ---
//
// CI's multicore-validate job holds the Par variant (GOMAXPROCS workers) to
// at least 1.3x the Seq one on a 4-vCPU runner, best of 3 per side:
//
//	go test -run '^$' -bench 'AllPairsDepartment(Seq|Par)$' -count 3 .
//
// The heavy department gives the batch enough sources to spread over the
// workers, and one untimed pass compiles every element's programs before
// the clock starts, so both sides time exploration alone.

func benchAllPairsDepartment(b *testing.B, workers int) {
	d := datasets.NewDepartment(datasets.HeavyDepartment())
	srcs, targets := d.AllPairs()
	run := func() {
		rep, err := verify.AllPairsReachability(d.Net, srcs, sefl.NewTCPPacket(), targets,
			core.Options{MaxHops: 64}, dist.InProcess(workers, nil))
		if err != nil {
			b.Fatal(err)
		}
		reached := 0
		for s := range rep.Sources {
			for t := range rep.Targets {
				reached += rep.PathCount[s][t]
			}
		}
		if reached == 0 {
			b.Fatal("no source reached any target — benchmark would measure a trivial workload")
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkAllPairsDepartmentSeq(b *testing.B) { benchAllPairsDepartment(b, 1) }
func BenchmarkAllPairsDepartmentPar(b *testing.B) {
	benchAllPairsDepartment(b, runtime.GOMAXPROCS(0))
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationIngressVsEgress20k quantifies the constraint-negation
// cost the egress model avoids.
func BenchmarkAblationIngressVsEgress20k(b *testing.B) {
	b.Run("ingress", func(b *testing.B) { benchSwitch(b, 20000, models.Ingress) })
	b.Run("egress", func(b *testing.B) { benchSwitch(b, 20000, models.Egress) })
}

// BenchmarkAblationBasicRouterLPM quantifies per-prefix branching vs
// grouped egress compilation at equal FIB size.
func BenchmarkAblationBasicRouterLPM(b *testing.B) {
	b.Run("basic", func(b *testing.B) { benchRouter(b, 1600, models.Basic) })
	b.Run("egress", func(b *testing.B) { benchRouter(b, 1600, models.Egress) })
}
