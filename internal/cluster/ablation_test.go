package cluster_test

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/workload"
	"repro/internal/xmath/stats"
)

// The clustering ablations compare the paper's choices (k-means, the
// linear BIC-scored k search) with the comparators kept in this
// package's test files (Ward agglomerative clustering, x-means) on a
// real feature matrix: bbr1 at the root benchmark suite's 8x-shortened
// scale, with its full cycle simulation as ground truth. Run them with
//
//	go test -run '^$' -bench Ablation ./internal/cluster

var ablationStudy = sync.OnceValues(func() (*harness.BenchmarkResult, error) {
	opts := harness.DefaultOptions()
	opts.Scale = workload.Scale{Width: 256, Height: 128, FrameDivisor: 8, DetailDivisor: 1}
	return harness.NewStudy(opts).Result("bbr1")
})

// ablationInput returns bbr1's feature vectors and a function giving a
// clustering's relative cycle-estimate error in per cent.
func ablationInput(b *testing.B) (*harness.BenchmarkResult, func(cluster.Result) float64) {
	b.Helper()
	r, err := ablationStudy()
	if err != nil {
		b.Fatal(err)
	}
	data := r.Features.Vectors
	estimateErr := func(res cluster.Result) float64 {
		reps := cluster.Representatives(data, res)
		est := 0.0
		for c, rep := range reps {
			est += float64(r.Full[rep].Cycles) * float64(res.Sizes[c])
		}
		return stats.RelativeError(est, float64(r.FullTotals.Cycles)) * 100
	}
	return r, estimateErr
}

// BenchmarkAblation_WardVsKMeans compares the paper's k-means choice
// against deterministic Ward agglomerative clustering at the same k.
func BenchmarkAblation_WardVsKMeans(b *testing.B) {
	r, estimateErr := ablationInput(b)
	data := r.Features.Vectors
	k := r.Selection.Clusters.K

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
// source of the BIC formulation).
func BenchmarkAblation_XMeansVsLinearSearch(b *testing.B) {
	r, estimateErr := ablationInput(b)
	data := r.Features.Vectors

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
		b.ReportMetric(estimateErr(res), "cycles-err-%")
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
		b.ReportMetric(estimateErr(res), "cycles-err-%")
	})
}
