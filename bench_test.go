// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of MEGsim's design choices. Each benchmark
// reports the experiment's headline numbers as custom metrics
// (reduction factor, relative error, correlation), so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's results. The full-resolution experiment run
// (all tables at Table II frame counts) is cmd/experiments; the bench
// suite uses shortened sequences so the whole suite completes in
// minutes. Expensive artifacts (traces, full simulations) are computed
// once and shared across benchmarks via a process-wide study cache.
package repro

import (
	"context"
	"io"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/harness"
	"repro/internal/power"
	"repro/internal/simmatrix"
	"repro/internal/tbr"
	"repro/internal/workload"
	"repro/internal/xmath/stats"
)

// benchScale shortens the Table II sequences 8x so the full suite runs
// in minutes while preserving the per-frame structure.
var benchScale = workload.Scale{Width: 256, Height: 128, FrameDivisor: 8, DetailDivisor: 1}

var (
	studyOnce sync.Once
	studyInst *harness.Study
)

// benchStudy returns the shared, lazily populated study.
func benchStudy(b *testing.B) *harness.Study {
	b.Helper()
	studyOnce.Do(func() {
		opts := harness.DefaultOptions()
		opts.Scale = benchScale
		studyInst = harness.NewStudy(opts)
	})
	return studyInst
}

func benchResult(b *testing.B, alias string) *harness.BenchmarkResult {
	b.Helper()
	r, err := benchStudy(b).Result(alias)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTableI_ConfigSim simulates one gameplay frame under the exact
// Table I configuration — the sanity baseline for the GPU model.
func BenchmarkTableI_ConfigSim(b *testing.B) {
	tr := workload.MustGenerate(workload.Profiles["bbr1"], benchScale)
	sim, err := tbr.New(tbr.DefaultConfig(), tr)
	if err != nil {
		b.Fatal(err)
	}
	frame := tr.NumFrames() / 2
	var st tbr.FrameStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = sim.SimulateFrame(frame)
	}
	b.ReportMetric(float64(st.Cycles), "cycles/frame")
	b.ReportMetric(st.IPC(), "ipc")
}

// BenchmarkTableII_Characterize measures the functional characterization
// pass (the cheap first step of MEGsim) per benchmark.
func BenchmarkTableII_Characterize(b *testing.B) {
	for _, alias := range workload.Aliases() {
		b.Run(alias, func(b *testing.B) {
			tr := workload.MustGenerate(workload.Profiles[alias], benchScale)
			b.ResetTimer()
			var res *funcsim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = funcsim.Run(context.Background(), tr, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.NumFrames())/b.Elapsed().Seconds()*float64(b.N), "frames/s")
			_ = res
		})
	}
}

// BenchmarkTableIII_Reduction regenerates the Table III reduction
// factors (clustering on cached characterizations).
func BenchmarkTableIII_Reduction(b *testing.B) {
	study := benchStudy(b)
	for _, alias := range workload.Aliases() {
		benchResult(b, alias) // populate cache outside the timer
	}
	b.ResetTimer()
	var avg float64
	for i := 0; i < b.N; i++ {
		tbl, err := study.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		if tbl.NumRows() != len(workload.Aliases())+1 {
			b.Fatal("incomplete table")
		}
	}
	b.StopTimer()
	for _, alias := range workload.Aliases() {
		avg += benchResult(b, alias).SpeedupFrames()
	}
	b.ReportMetric(avg/float64(len(workload.Aliases())), "avg-reduction-x")
}

// BenchmarkFig3_Correlation regenerates the correlation study.
func BenchmarkFig3_Correlation(b *testing.B) {
	r := benchResult(b, "bbr1")
	cycles := make([]float64, len(r.Full))
	for i := range r.Full {
		cycles[i] = float64(r.Full[i].Cycles)
	}
	b.ResetTimer()
	var corr core.Correlation
	for i := 0; i < b.N; i++ {
		var err error
		corr, err = core.CorrelationStudy(r.Func, cycles)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(corr.VSCV, "corr-vscv")
	b.ReportMetric(corr.FSCV, "corr-fscv")
	b.ReportMetric(corr.Prim, "corr-prim")
}

// BenchmarkFig4_PowerFractions regenerates the per-phase power split.
func BenchmarkFig4_PowerFractions(b *testing.B) {
	r := benchResult(b, "asp")
	model := power.DefaultEnergyModel()
	b.ResetTimer()
	var bd power.Breakdown
	for i := 0; i < b.N; i++ {
		bd = model.SequenceEnergy(r.Full)
	}
	g, ti, ra := bd.Fractions()
	b.ReportMetric(g*100, "geometry-%")
	b.ReportMetric(ti*100, "tiling-%")
	b.ReportMetric(ra*100, "raster-%")
}

// BenchmarkFig5_SimilarityMatrix builds the Fig. 5 matrix for bbr1.
func BenchmarkFig5_SimilarityMatrix(b *testing.B) {
	r := benchResult(b, "bbr1")
	vecs := r.Features.Vectors
	if len(vecs) > 300 {
		vecs = vecs[:300]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := simmatrix.New(vecs)
		if err := m.WritePGM(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_Clusters runs the full cluster search on bbr1's cached
// feature matrix (the Fig. 6 clustering).
func BenchmarkFig6_Clusters(b *testing.B) {
	r := benchResult(b, "bbr1")
	cfg := cluster.DefaultSearchConfig()
	rng := stats.NewRNG(7)
	b.ResetTimer()
	var k int
	for i := 0; i < b.N; i++ {
		sr, err := cluster.Search(r.Features.Vectors, cfg, rng.Split())
		if err != nil {
			b.Fatal(err)
		}
		k = sr.Best.K
	}
	b.ReportMetric(float64(k), "clusters")
}

// BenchmarkFig7_Accuracy regenerates the accuracy study from cached
// simulations and reports the average cycles error.
func BenchmarkFig7_Accuracy(b *testing.B) {
	study := benchStudy(b)
	for _, alias := range workload.Aliases() {
		benchResult(b, alias)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var avg float64
	for _, alias := range workload.Aliases() {
		avg += benchResult(b, alias).Accuracy.Percent(core.MetricCycles)
	}
	b.ReportMetric(avg/float64(len(workload.Aliases())), "avg-cycles-err-%")
}

// BenchmarkTableIV_RandomSubsampling regenerates the random
// sub-sampling comparison for one benchmark.
func BenchmarkTableIV_RandomSubsampling(b *testing.B) {
	r := benchResult(b, "jjo")
	cycles := make([]float64, len(r.Full))
	for i := range r.Full {
		cycles[i] = float64(r.Full[i].Cycles)
	}
	// MEGsim's own achieved error is the target random must match.
	actual := stats.Sum(cycles)
	est := 0.0
	for c, rep := range r.Selection.Representatives {
		est += cycles[rep] * float64(r.Selection.Clusters.Sizes[c])
	}
	target := stats.RelativeError(est, actual)
	if target <= 0 {
		target = 0.001
	}
	b.ResetTimer()
	var need int
	for i := 0; i < b.N; i++ {
		var err error
		need, err = core.FramesNeeded(cycles, target, 200, 0.95, 17)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(need), "random-frames")
	b.ReportMetric(float64(r.Selection.NumRepresentatives()), "megsim-frames")
	b.ReportMetric(float64(need)/float64(r.Selection.NumRepresentatives()), "reduction-x")
}

// ablationAccuracy reruns selection+estimation on a cached benchmark
// with a modified MEGsim configuration, reporting the cycles error and
// representative count.
func ablationAccuracy(b *testing.B, alias string, mutate func(*core.Config)) (errPct, reps float64) {
	b.Helper()
	r := benchResult(b, alias)
	cfg := core.DefaultConfig()
	mutate(&cfg)
	fs, err := core.BuildFeatures(r.Func, cfg.Feature)
	if err != nil {
		b.Fatal(err)
	}
	sel, err := core.Select(fs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	est, err := sel.EstimateFromFullRun(r.Full)
	if err != nil {
		b.Fatal(err)
	}
	acc := core.EvaluateAccuracy(&est, &r.FullTotals)
	return acc.Percent(core.MetricCycles), float64(sel.NumRepresentatives())
}

// BenchmarkAblation_UniformWeights replaces the measured phase weights
// (0.108/0.745/0.147) with uniform ones.
func BenchmarkAblation_UniformWeights(b *testing.B) {
	var errPct, reps float64
	for i := 0; i < b.N; i++ {
		errPct, reps = ablationAccuracy(b, "bbr1", func(c *core.Config) {
			c.Feature.Weights = core.UniformWeights
		})
	}
	b.ReportMetric(errPct, "cycles-err-%")
	b.ReportMetric(reps, "frames")
}

// BenchmarkAblation_NoTexWeights disables the texture-filter memory
// weighting (2/4/8) of shader instruction counts.
func BenchmarkAblation_NoTexWeights(b *testing.B) {
	var errPct, reps float64
	for i := 0; i < b.N; i++ {
		errPct, reps = ablationAccuracy(b, "bbr1", func(c *core.Config) {
			c.Feature.UseTextureWeights = false
		})
	}
	b.ReportMetric(errPct, "cycles-err-%")
	b.ReportMetric(reps, "frames")
}

// BenchmarkAblation_NoPrim drops the PRIM component, leaving the Tiling
// Engine uncharacterized.
func BenchmarkAblation_NoPrim(b *testing.B) {
	var errPct, reps float64
	for i := 0; i < b.N; i++ {
		errPct, reps = ablationAccuracy(b, "bbr1", func(c *core.Config) {
			c.Feature.IncludePrim = false
		})
	}
	b.ReportMetric(errPct, "cycles-err-%")
	b.ReportMetric(reps, "frames")
}

// BenchmarkAblation_ThresholdT sweeps the BIC spread threshold.
func BenchmarkAblation_ThresholdT(b *testing.B) {
	for _, t := range []float64{0.70, 0.85, 0.95} {
		name := map[float64]string{0.70: "T070", 0.85: "T085", 0.95: "T095"}[t]
		b.Run(name, func(b *testing.B) {
			var errPct, reps float64
			for i := 0; i < b.N; i++ {
				errPct, reps = ablationAccuracy(b, "bbr1", func(c *core.Config) {
					c.Search.Threshold = t
				})
			}
			b.ReportMetric(errPct, "cycles-err-%")
			b.ReportMetric(reps, "frames")
		})
	}
}

// BenchmarkAblation_KMeansInit compares k-means++ seeding against plain
// random seeding at the chosen k.
func BenchmarkAblation_KMeansInit(b *testing.B) {
	r := benchResult(b, "bbr1")
	k := r.Selection.Clusters.K
	data := r.Features.Vectors

	b.Run("kmeans++", func(b *testing.B) {
		var wcss float64
		for i := 0; i < b.N; i++ {
			res := cluster.KMeans(data, k, stats.NewRNG(uint64(i)+1), 0)
			wcss = res.WCSS
		}
		b.ReportMetric(wcss, "wcss")
	})
	b.Run("random-seed", func(b *testing.B) {
		var wcss float64
		for i := 0; i < b.N; i++ {
			// Plain random seeding: k distinct points drawn uniformly.
			rng := stats.NewRNG(uint64(i) + 1)
			idx := rng.Sample(len(data), k)
			seeds := make([][]float64, k)
			for j, id := range idx {
				seeds[j] = data[id]
			}
			res := cluster.KMeansSeeded(data, k, rng, 0, seeds)
			wcss = res.WCSS
		}
		b.ReportMetric(wcss, "wcss")
	})
}

// BenchmarkSimulateFrame measures raw cycle-simulator throughput per
// benchmark type (2D vs 3D frame).
func BenchmarkSimulateFrame(b *testing.B) {
	for _, alias := range []string{"hcr", "asp"} {
		b.Run(alias, func(b *testing.B) {
			tr := workload.MustGenerate(workload.Profiles[alias], benchScale)
			sim, err := tbr.New(tbr.DefaultConfig(), tr)
			if err != nil {
				b.Fatal(err)
			}
			frame := tr.NumFrames() / 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.SimulateFrame(frame)
			}
		})
	}
}

// BenchmarkExtension_TBDR compares the classic TBR pipeline against the
// TBDR/Hidden-Surface-Removal extension the paper suggests for newer
// GPUs (Section IV-A): same workload, shaded fragments and cycles under
// both architectures.
func BenchmarkExtension_TBDR(b *testing.B) {
	tr := workload.MustGenerate(workload.Profiles["bbr1"], benchScale)
	frame := tr.NumFrames() / 2
	for _, mode := range []struct {
		name     string
		deferred bool
	}{{"TBR", false}, {"TBDR", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := tbr.DefaultConfig()
			cfg.DeferredShading = mode.deferred
			sim, err := tbr.New(cfg, tr)
			if err != nil {
				b.Fatal(err)
			}
			var st tbr.FrameStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st = sim.SimulateFrame(frame)
			}
			b.ReportMetric(float64(st.FragmentsShaded), "fragments-shaded")
			b.ReportMetric(float64(st.Cycles), "cycles")
		})
	}
}

// BenchmarkBaseline_SamplingComparison compares the three sampling
// families the paper discusses on one benchmark: MEGsim's targeted
// clustering, SMARTS-style periodic sampling, and naive random
// sub-sampling, all at MEGsim's frame budget.
func BenchmarkBaseline_SamplingComparison(b *testing.B) {
	r := benchResult(b, "pvz")
	cycles := make([]float64, len(r.Full))
	for i := range r.Full {
		cycles[i] = float64(r.Full[i].Cycles)
	}
	actual := stats.Sum(cycles)
	k := r.Selection.NumRepresentatives()

	megsimEst := 0.0
	for c, rep := range r.Selection.Representatives {
		megsimEst += cycles[rep] * float64(r.Selection.Clusters.Sizes[c])
	}
	var randomErr, periodicErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		randomErr, err = core.SubsampleMaxError(cycles, k, 200, 0.95, stats.NewRNG(5))
		if err != nil {
			b.Fatal(err)
		}
		periodicErr, err = core.PeriodicMaxError(cycles, k, 50, 0.95)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.RelativeError(megsimEst, actual)*100, "megsim-err-%")
	b.ReportMetric(periodicErr*100, "periodic-err-%")
	b.ReportMetric(randomErr*100, "random-err-%")
}

// BenchmarkAblation_WardVsKMeans compares the paper's k-means choice
// against deterministic Ward agglomerative clustering at the same k on
// a real feature matrix.
func BenchmarkAblation_WardVsKMeans(b *testing.B) {
	r := benchResult(b, "bbr1")
	data := r.Features.Vectors
	k := r.Selection.Clusters.K

	estimateErr := func(res cluster.Result) float64 {
		reps := cluster.Representatives(data, res)
		est := 0.0
		for c, rep := range reps {
			est += float64(r.Full[rep].Cycles) * float64(res.Sizes[c])
		}
		return stats.RelativeError(est, float64(r.FullTotals.Cycles)) * 100
	}

	b.Run("kmeans", func(b *testing.B) {
		var res cluster.Result
		for i := 0; i < b.N; i++ {
			res = cluster.KMeans(data, k, stats.NewRNG(uint64(i)+1), 0)
		}
		b.ReportMetric(res.WCSS, "wcss")
		b.ReportMetric(estimateErr(res), "cycles-err-%")
	})
	b.Run("ward", func(b *testing.B) {
		var res cluster.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = cluster.Agglomerative(data, k)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.WCSS, "wcss")
		b.ReportMetric(estimateErr(res), "cycles-err-%")
	})
}

// BenchmarkAblation_XMeansVsLinearSearch compares the paper's linear
// BIC-scored k search against Pelleg & Moore's recursive x-means (the
// source of the BIC formulation) on a real feature matrix.
func BenchmarkAblation_XMeansVsLinearSearch(b *testing.B) {
	r := benchResult(b, "bbr1")
	data := r.Features.Vectors

	evalErr := func(res cluster.Result) float64 {
		reps := cluster.Representatives(data, res)
		est := 0.0
		for c, rep := range reps {
			est += float64(r.Full[rep].Cycles) * float64(res.Sizes[c])
		}
		return stats.RelativeError(est, float64(r.FullTotals.Cycles)) * 100
	}

	b.Run("linear-search", func(b *testing.B) {
		var res cluster.Result
		for i := 0; i < b.N; i++ {
			sr, err := cluster.Search(data, cluster.DefaultSearchConfig(), stats.NewRNG(uint64(i)+3))
			if err != nil {
				b.Fatal(err)
			}
			res = sr.Best
		}
		b.ReportMetric(float64(res.K), "clusters")
		b.ReportMetric(evalErr(res), "cycles-err-%")
	})
	b.Run("xmeans", func(b *testing.B) {
		var res cluster.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = cluster.XMeans(data, 1, 56, stats.NewRNG(uint64(i)+3), 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.K), "clusters")
		b.ReportMetric(evalErr(res), "cycles-err-%")
	})
}
