package cluster

import (
	"testing"

	"repro/internal/xmath/stats"
)

// benchSeed seeds every op of the randomized benchmarks. One fixed
// seed makes each op the same work, so ns/op does not depend on which
// seeds a given b.N happens to run.
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
	for i := 0; i < b.N; i++ {
		KMeans(data, 8, stats.NewRNG(benchSeed), 0)
	}
}

func BenchmarkKMeansSeededWarmStart(b *testing.B) {
	data := benchData(1000, 32)
	base := KMeans(data, 7, stats.NewRNG(1), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeansSeeded(data, 8, stats.NewRNG(benchSeed), 0, base.Centroids)
	}
}

func BenchmarkBIC(b *testing.B) {
	data := benchData(1000, 32)
	res := KMeans(data, 8, stats.NewRNG(1), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BIC(data, res)
	}
}

func BenchmarkSearch(b *testing.B) {
	data := benchData(500, 16)
	cfg := DefaultSearchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(data, cfg, stats.NewRNG(benchSeed)); err != nil {
			b.Fatal(err)
		}
	}
}
