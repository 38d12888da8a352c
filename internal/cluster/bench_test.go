package cluster

import (
	"testing"

	"repro/internal/xmath/stats"
)

// benchSeed seeds every op of the randomized benchmarks. One fixed
// seed makes each op the same work, so ns/op does not depend on which
// seeds a given b.N happens to run, and the work counts the benchmarks
// report (iterations/op, explored-k/op) are exact: benchjson -check
// gates them for equality with the baseline.
const benchSeed = 1

func benchData(n, d int) [][]float64 {
	rng := stats.NewRNG(42)
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, d)
		center := float64(i % 5 * 20)
		for j := range data[i] {
			data[i][j] = center + rng.Norm(0, 1)
		}
	}
	return data
}

func BenchmarkKMeans(b *testing.B) {
	data := benchData(1000, 32)
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		res = KMeans(data, 8, stats.NewRNG(benchSeed), 0)
	}
	b.ReportMetric(float64(res.Iterations), "iterations/op")
}

func BenchmarkKMeansSeededWarmStart(b *testing.B) {
	data := benchData(1000, 32)
	base := KMeans(data, 7, stats.NewRNG(1), 0)
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		res = KMeansSeeded(data, 8, stats.NewRNG(benchSeed), 0, base.Centroids)
	}
	b.ReportMetric(float64(res.Iterations), "iterations/op")
}

func BenchmarkBIC(b *testing.B) {
	data := benchData(1000, 32)
	res := KMeans(data, 8, stats.NewRNG(1), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bic(data, res)
	}
}

func BenchmarkSearch(b *testing.B) {
	data := benchData(500, 16)
	cfg := DefaultSearchConfig()
	b.ResetTimer()
	var (
		ex  *Exploration
		res SearchResult
	)
	for i := 0; i < b.N; i++ {
		var err error
		if ex, err = Explore(data, cfg, stats.NewRNG(benchSeed)); err != nil {
			b.Fatal(err)
		}
		if res, err = ex.Cut(data, cfg.Threshold); err != nil {
			b.Fatal(err)
		}
	}
	// iterations/op sums the Lloyd iterations of the clustering kept
	// at every explored k.
	iters := 0
	for _, st := range ex.steps {
		iters += st.iterations
	}
	b.ReportMetric(float64(res.StoppedAt), "explored-k/op")
	b.ReportMetric(float64(iters), "iterations/op")
}
