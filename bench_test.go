package hdivexplorer

// One benchmark per paper artifact (see DESIGN.md §3 for the experiment
// index), plus component ablation benches for the design choices the paper
// discusses: miner choice (Apriori vs FP-Growth), polarity pruning, and
// base vs hierarchical exploration. Artifact benches run the same runners
// as cmd/experiments at reduced sizes; use cmd/experiments -full for
// paper-scale numbers.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/discretize"
	"repro/internal/experiments"
	"repro/internal/fpm"
	"repro/internal/outcome"
	"repro/internal/treebaseline"
)

// benchCfg keeps artifact benches small enough for routine runs.
var benchCfg = experiments.Config{
	Seed:        1,
	ForestTrees: 5,
	SizeOverride: map[string]int{
		"adult":          2_000,
		"bank":           2_000,
		"compas":         3_000,
		"folktables":     8_000,
		"german":         1_000,
		"intentions":     2_000,
		"synthetic-peak": 5_000,
		"wine":           2_000,
	},
}

func benchArtifact(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (manual compas subgroups).
func BenchmarkTable1(b *testing.B) { benchArtifact(b, "table1") }

// BenchmarkFigure1 regenerates Figure 1 (the #prior item hierarchy).
func BenchmarkFigure1(b *testing.B) { benchArtifact(b, "fig1") }

// BenchmarkTable2 regenerates Table II (dataset characteristics).
func BenchmarkTable2(b *testing.B) { benchArtifact(b, "table2") }

// BenchmarkTable3 regenerates Table III (compas top itemsets by approach).
func BenchmarkTable3(b *testing.B) { benchArtifact(b, "table3") }

// BenchmarkTable4 regenerates Table IV (folktables top itemsets).
func BenchmarkTable4(b *testing.B) { benchArtifact(b, "table4") }

// BenchmarkFigure2 regenerates Figure 2 (max Δ and time vs s, 7 datasets).
func BenchmarkFigure2(b *testing.B) { benchArtifact(b, "fig2") }

// BenchmarkFigure3a regenerates Figure 3a (folktables base vs hierarchical).
func BenchmarkFigure3a(b *testing.B) { benchArtifact(b, "fig3a") }

// BenchmarkFigure3b regenerates Figure 3b (divergence vs entropy criteria).
func BenchmarkFigure3b(b *testing.B) { benchArtifact(b, "fig3b") }

// BenchmarkFigure4 regenerates Figure 4 (complete vs polarity-pruned).
func BenchmarkFigure4(b *testing.B) { benchArtifact(b, "fig4") }

// BenchmarkFigure5 regenerates Figure 5 (synthetic-peak top ranges).
func BenchmarkFigure5(b *testing.B) { benchArtifact(b, "fig5") }

// BenchmarkFigure6 regenerates Figure 6 (Slice Finder failure modes).
func BenchmarkFigure6(b *testing.B) { benchArtifact(b, "fig6") }

// BenchmarkFigure7 regenerates Figure 7 (quantile vs tree hierarchical).
func BenchmarkFigure7(b *testing.B) { benchArtifact(b, "fig7") }

// BenchmarkFigure8 regenerates Figure 8 (sensitivity to st).
func BenchmarkFigure8(b *testing.B) { benchArtifact(b, "fig8") }

// BenchmarkPerf regenerates the §VI-F performance analysis.
func BenchmarkPerf(b *testing.B) { benchArtifact(b, "perf") }

// BenchmarkSliceLine regenerates the §VI-G SliceLine comparison.
func BenchmarkSliceLine(b *testing.B) { benchArtifact(b, "sliceline") }

// peakFixture prepares the synthetic-peak exploration inputs once per
// ablation bench.
func peakFixture(b *testing.B, n int) (*Table, *Outcome, *HierarchySet) {
	b.Helper()
	d := datagen.SyntheticPeak(datagen.Config{N: n, Seed: 1})
	o := outcome.ErrorRate(d.Actual, d.Predicted)
	hs, err := discretize.TreeSet(d.Table, o, discretize.TreeOptions{MinSupport: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	return d.Table, o, hs
}

// BenchmarkAblationTreeDiscretization measures the hierarchical tree
// discretizer alone (the paper reports it is negligible vs exploration).
func BenchmarkAblationTreeDiscretization(b *testing.B) {
	d := datagen.SyntheticPeak(datagen.Config{N: 10_000, Seed: 1})
	o := outcome.ErrorRate(d.Actual, d.Predicted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := discretize.TreeSet(d.Table, o, discretize.TreeOptions{MinSupport: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMiner compares Apriori and FP-Growth on the same
// generalized universe.
func BenchmarkAblationMiner(b *testing.B) {
	tab, o, hs := peakFixture(b, 10_000)
	for _, alg := range []fpm.Algorithm{fpm.Apriori, fpm.FPGrowth} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Explore(tab, core.Config{
					Outcome: o, Hierarchies: hs, MinSupport: 0.025,
					Mode: core.Hierarchical, Algorithm: alg,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPolarity measures the polarity-pruning speedup on the
// attribute-heavy wine workload (the paper's best case).
func BenchmarkAblationPolarity(b *testing.B) {
	w, err := experiments.Load("wine", benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	hs, err := w.Hierarchies(0.1, discretize.DivergenceGain)
	if err != nil {
		b.Fatal(err)
	}
	for _, prune := range []bool{false, true} {
		name := "complete"
		if prune {
			name = "pruned"
		}
		b.Run(name, func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = core.Explore(w.Table, core.Config{
					Outcome: w.Outcome, Hierarchies: hs, MinSupport: 0.05,
					Mode: core.Hierarchical, PolarityPrune: prune,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			// The §V-C claim, as metrics: pruning cuts candidates while the
			// pruned-by-polarity counter accounts for the removals.
			b.ReportMetric(float64(rep.Mining.Candidates), "candidates/op")
			b.ReportMetric(float64(rep.Mining.PrunedPolarity), "pruned_polarity/op")
			b.ReportMetric(float64(rep.Mining.Frequent), "itemsets/op")
		})
	}
}

// BenchmarkAblationBaseVsHierarchical measures the exploration-cost gap the
// paper's Figure 2b reports.
func BenchmarkAblationBaseVsHierarchical(b *testing.B) {
	tab, o, hs := peakFixture(b, 10_000)
	for _, mode := range []core.Mode{core.Base, core.Hierarchical} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Explore(tab, core.Config{
					Outcome: o, Hierarchies: hs, MinSupport: 0.05, Mode: mode,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipeline measures the end-to-end public API on the quickstart-
// sized workload with a nil tracer (the zero-overhead baseline every
// observability change is measured against). Key mining counters are
// reported as custom benchmark metrics; they are deterministic per op.
func BenchmarkPipeline(b *testing.B) {
	d := datagen.Compas(datagen.Config{Seed: 1})
	o := outcome.FalsePositiveRate(d.Actual, d.Predicted)
	b.ResetTimer()
	var rep *Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = Pipeline(d.Table, o, PipelineOptions{TreeSupport: 0.1, MinSupport: 0.05})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Mining.Candidates), "candidates/op")
	b.ReportMetric(float64(rep.Mining.PrunedSupport), "pruned_support/op")
	b.ReportMetric(float64(rep.Mining.Frequent), "itemsets/op")
}

// BenchmarkPipelineTraced is BenchmarkPipeline with a live tracer:
// comparing the two bounds the observability overhead (spans, counters
// and the Report.Trace snapshot).
func BenchmarkPipelineTraced(b *testing.B) {
	d := datagen.Compas(datagen.Config{Seed: 1})
	o := outcome.FalsePositiveRate(d.Actual, d.Predicted)
	b.ResetTimer()
	var rep *Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = Pipeline(d.Table, o, PipelineOptions{
			TreeSupport: 0.1, MinSupport: 0.05, Tracer: NewTracer(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if rep.Trace == nil {
		b.Fatal("traced pipeline produced no Report.Trace")
	}
	b.ReportMetric(float64(rep.Trace.Counter("fpm.candidates")), "candidates/op")
	b.ReportMetric(float64(len(rep.Trace.Spans)), "spans/op")
}

// BenchmarkAblationWorkers measures parallel-mining scaling on the
// attribute-heavy intentions workload. Each sub-benchmark reports its
// speedup over workers=1 (when that ran first) as a metric. Speedup
// requires GOMAXPROCS > 1; on a single-core host all settings cost the
// same (results are identical regardless — see TestParallelMatchesSerial).
func BenchmarkAblationWorkers(b *testing.B) {
	w, err := experiments.Load("intentions", benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	hs, err := w.Hierarchies(0.1, discretize.DivergenceGain)
	if err != nil {
		b.Fatal(err)
	}
	var serialNs float64 // workers=1 ns/op, the speedup baseline
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Explore(w.Table, core.Config{
					Outcome: w.Outcome, Hierarchies: hs, MinSupport: 0.05,
					Mode: core.Hierarchical, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if workers == 1 {
				serialNs = ns
			}
			if serialNs > 0 {
				b.ReportMetric(serialNs/ns, "speedup")
			}
		})
	}
}

// BenchmarkAblationCombinedTree contrasts the §V-A combined-tree
// alternative with hierarchical exploration on synthetic-peak.
func BenchmarkAblationCombinedTree(b *testing.B) {
	d := datagen.SyntheticPeak(datagen.Config{N: 10_000, Seed: 1})
	o := outcome.ErrorRate(d.Actual, d.Predicted)
	b.Run("combined-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := treebaseline.Grow(d.Table, o, treebaseline.Options{MinSupport: 0.05}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("h-divexplorer", func(b *testing.B) {
		hs, err := discretize.TreeSet(d.Table, o, discretize.TreeOptions{MinSupport: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := core.Explore(d.Table, core.Config{
				Outcome: o, Hierarchies: hs, MinSupport: 0.05, Mode: core.Hierarchical,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtTree regenerates the combined-tree extension comparison.
func BenchmarkExtTree(b *testing.B) { benchArtifact(b, "exttree") }

// BenchmarkMultiStat measures the single-pass multi-statistic win on the
// compas analog: computing {FPR, FNR, error} as three independent
// explorations versus one ExploreMulti pass over the shared lattice. The
// three-run variant re-mines the lattice per statistic; the bundle mines
// it once and accumulates all three moment sets in-pass, so its ns/op
// should sit well under 3× a single run.
func BenchmarkMultiStat(b *testing.B) {
	d := datagen.Compas(datagen.Config{N: 3_000, Seed: 1})
	outs := []*Outcome{
		outcome.FalsePositiveRate(d.Actual, d.Predicted),
		outcome.FalseNegativeRate(d.Actual, d.Predicted),
		outcome.ErrorRate(d.Actual, d.Predicted),
	}
	hs, err := discretize.TreeSet(d.Table, outs[0], discretize.TreeOptions{MinSupport: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range d.Table.Fields() {
		if f.Kind == Categorical {
			hs.Add(FlatCategorical(d.Table, f.Name))
		}
	}
	bun, err := NewOutcomeBundle(outs...)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ExploreConfig{Hierarchies: hs, MinSupport: 0.05, Mode: Hierarchical}

	b.Run("3x-single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, o := range outs {
				c := cfg
				c.Outcome = o
				if _, err := core.Explore(d.Table, c); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(3, "stats/op")
	})
	b.Run("one-pass", func(b *testing.B) {
		var reps []*Report
		for i := 0; i < b.N; i++ {
			var err error
			reps, err = ExploreMulti(d.Table, cfg, bun)
			if err != nil {
				b.Fatal(err)
			}
		}
		if len(reps) != 3 {
			b.Fatalf("%d reports, want 3", len(reps))
		}
		b.ReportMetric(3, "stats/op")
	})
}
