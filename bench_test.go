// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, plus the ablations of DESIGN.md §5. Each benchmark regenerates its
// artifact end-to-end from a fresh simulation (the reported time is the
// cost of reproducing the experiment, dominated by the simulated machine's
// lazy power evaluation). Failed shape checks fail the benchmark: `go test
// -bench=.` therefore doubles as a full reproduction run.
package envmon

import (
	"fmt"
	"testing"
	"time"

	"envmon/internal/cluster"
	"envmon/internal/core"
	"envmon/internal/experiments"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/moneq"
	"envmon/internal/rapl"
	"envmon/internal/simclock"
	"envmon/internal/workload"
)

const benchSeed = 42

// benchExperiment runs one registered experiment per iteration and fails
// on any failed shape check.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.Checks {
			if !c.Pass {
				b.Fatalf("%s: shape check %q failed: %s", id, c.Name, c.Detail)
			}
		}
	}
}

// --- Tables -------------------------------------------------------------------

func BenchmarkTable1_CapabilityMatrix(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2_RAPLDomains(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkTable3_MonEQOverhead(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable4_PerQueryOverhead(b *testing.B) { benchExperiment(b, "table4") }

// --- Figures ------------------------------------------------------------------

func BenchmarkFig1_BPMPower(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig2_MonEQDomains(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig3_RAPLGauss(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4_NVMLNoop(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFig5_NVMLVecAdd(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6_SCIFPaths(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7_APIvsDaemon(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8_PhiClusterGauss(b *testing.B) { benchExperiment(b, "fig8") }

// --- Ablations (DESIGN.md §5) ---------------------------------------------------

func BenchmarkTable5_ToolComparison(b *testing.B)   { benchExperiment(b, "table5-tools") }
func BenchmarkAblation_MSRvsPerf(b *testing.B)      { benchExperiment(b, "ablation-msr-vs-perf") }
func BenchmarkAblation_EnvDBCapacity(b *testing.B)  { benchExperiment(b, "ablation-envdb-capacity") }
func BenchmarkAblation_RAPLWraparound(b *testing.B) { benchExperiment(b, "ablation-rapl-wrap") }
func BenchmarkAblation_SCIFBatching(b *testing.B)   { benchExperiment(b, "ablation-scif-batch") }
func BenchmarkAblation_MonEQInterval(b *testing.B)  { benchExperiment(b, "ablation-moneq-interval") }

// BenchmarkAblation_MonEQAlloc compares MonEQ's collection path with and
// without the preallocated sample buffers the paper describes ("allocates
// an array ... to a reasonably large number" at initialization). Compare
// the allocs/op of the two sub-benchmarks.
func BenchmarkAblation_MonEQAlloc(b *testing.B) {
	run := func(b *testing.B, prealloc int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clock := simclock.New()
			socket := rapl.NewSocket(rapl.Config{Name: "bench", Seed: benchSeed})
			socket.Run(workload.GaussElim(30*time.Second), 0)
			col, err := core.Build(rapl.MSR.Key, socket)
			if err != nil {
				b.Fatal(err)
			}
			m, err := moneq.Initialize(moneq.Config{
				Clock: clock, Interval: 100 * time.Millisecond, PreallocPolls: prealloc,
			}, col)
			if err != nil {
				b.Fatal(err)
			}
			clock.Advance(30 * time.Second)
			if _, err := m.Finalize(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dynamic", func(b *testing.B) { run(b, 0) })
	b.Run("preallocated", func(b *testing.B) { run(b, 512) })
}

// --- Scale sweep ----------------------------------------------------------------

// BenchmarkScale_ClusterStep sweeps cluster size x worker count over the
// clock-domain stepping path: every node rides its own domain and polls its
// MICRAS daemon at the SMC's 50 ms period; each iteration advances the
// whole machine by 250 ms (5 polls per node) on a pool of the given size.
// On a multi-core host the workers=8 rows should show the wall-clock
// speedup over workers=1 that motivates the sharding; readings land in a
// reused per-node buffer so memory stays flat across iterations. -short
// keeps only the 128-node case.
func BenchmarkScale_ClusterStep(b *testing.B) {
	for _, nodes := range []int{128, 1024, 4096} {
		if testing.Short() && nodes > 128 {
			continue
		}
		c, err := cluster.NewStampede(nodes, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		c.Run(workload.PhiGauss(time.Second, 2*time.Second), 0, time.Millisecond)
		d := c.Domains(0)
		for i := range c.Nodes {
			cols, err := c.Nodes[i].Devices().Collectors(core.DefaultRegistry, micras.Daemon.Key)
			if err != nil {
				b.Fatal(err)
			}
			col := cols[0]
			var buf []core.Reading
			d.Clock(i).Every(mic.SMCUpdatePeriod, func(now time.Duration) {
				readings, err := col.CollectInto(buf, now)
				if err != nil {
					b.Error(err)
				}
				buf = readings[:0]
			})
		}
		for _, workers := range []int{1, 2, 4, 8} {
			workers := workers
			b.Run(fmt.Sprintf("nodes=%d/workers=%d", nodes, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d.AdvanceEpochs(d.Now()+250*time.Millisecond, 0, workers, nil)
				}
			})
		}
	}
}

// --- Collection-path micro-benchmarks -------------------------------------------

// BenchmarkCollect_PerMechanism measures the harness-side cost of one
// Collect round per mechanism (simulation cost, not the modeled hardware
// latency — that is Table 4's subject).
func BenchmarkCollect_PerMechanism(b *testing.B) {
	rows := experiments.MeasureQueryCosts(benchSeed)
	if len(rows) == 0 {
		b.Fatal("no mechanisms measured")
	}
	// The measurement itself exercises all seven mechanisms; benchmark the
	// full sweep.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.MeasureQueryCosts(benchSeed)
	}
}
