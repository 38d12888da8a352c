package linalg

import (
	"testing"

	"repro/internal/xmath/stats"
)

func randomDominantMatrix(n int, seed uint64) *matrix {
	rng := stats.NewRNG(seed)
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				v := rng.Norm(0, 1)
				m.Set(i, j, v)
				if v < 0 {
					rowSum -= v
				} else {
					rowSum += v
				}
			}
		}
		m.Set(i, i, rowSum+1)
	}
	return m
}

func BenchmarkInverse64(b *testing.B) {
	m := randomDominantMatrix(64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultipleCorrelation(b *testing.B) {
	rng := stats.NewRNG(5)
	const n, preds = 2000, 40
	xs := make([][]float64, preds)
	for p := range xs {
		xs[p] = make([]float64, n)
		for i := range xs[p] {
			xs[p][i] = rng.Norm(0, 3)
		}
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = xs[0][i]*2 + xs[1][i] + rng.Norm(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MultipleCorrelation(xs, y); err != nil {
			b.Fatal(err)
		}
	}
}
