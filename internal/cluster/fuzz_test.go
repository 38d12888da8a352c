package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/xmath/stats"
)

// fuzzDataset decodes arbitrary bytes into a non-degenerate dataset for
// the k-means/BIC pipeline. The first byte picks the dimensionality
// (1..4) and a duplication factor (adversarially duplicate-heavy inputs
// are a known k-means failure mode); the rest is consumed 8 bytes at a
// time as float64 coordinates, with NaN/Inf filtered to large-but-finite
// values and magnitudes clamped so WCSS arithmetic stays in range.
func fuzzDataset(raw []byte) [][]float64 {
	if len(raw) < 9 {
		return nil
	}
	dim := int(raw[0]&0x03) + 1
	dupes := int(raw[0]>>2&0x07) + 1
	raw = raw[1:]

	const clamp = 1e6
	const maxPoints = 512 // keep a single exec fast under -fuzztime smoke runs
	var data [][]float64
	for len(raw) >= 8*dim && len(data) < maxPoints {
		vec := make([]float64, dim)
		for d := 0; d < dim; d++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*d:]))
			switch {
			case math.IsNaN(v):
				v = clamp
			case v > clamp || math.IsInf(v, 1):
				v = clamp
			case v < -clamp || math.IsInf(v, -1):
				v = -clamp
			}
			vec[d] = v
		}
		raw = raw[8*dim:]
		for i := 0; i < dupes; i++ {
			data = append(data, vec)
		}
	}
	return data
}

// rawDataset decodes the same bytes as fuzzDataset without filtering:
// NaN, ±Inf, subnormal and huge coordinates reach k-means as they are.
func rawDataset(raw []byte) [][]float64 {
	if len(raw) < 9 {
		return nil
	}
	dim := int(raw[0]&0x03) + 1
	dupes := int(raw[0]>>2&0x07) + 1
	raw = raw[1:]
	var data [][]float64
	for len(raw) >= 8*dim && len(data) < 512 {
		vec := make([]float64, dim)
		for d := range vec {
			vec[d] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*d:]))
		}
		raw = raw[8*dim:]
		for i := 0; i < dupes; i++ {
			data = append(data, vec)
		}
	}
	return data
}

// FuzzSearch throws adversarial datasets — NaN/Inf bit patterns,
// duplicate-heavy point sets, single points — at the full BIC
// cluster-count search and checks the structural invariants every
// clustering must satisfy. Any panic (empty cluster, NaN centroid,
// division by zero variance) is a finding. It also holds the bounded
// k-means kernel to plain Lloyd: on the filtered and on the raw
// (NaN/Inf-carrying) dataset, KMeansSeeded fresh and warm-started
// runs and the whole search must equal the full-scan references of
// reference_test.go bit for bit.
func FuzzSearch(f *testing.F) {
	// Single point.
	one := []byte{0x00}
	one = binary.LittleEndian.AppendUint64(one, math.Float64bits(1.5))
	f.Add(one, uint64(1))

	// NaN and +/-Inf coordinates (filtered by the harness, but the bit
	// patterns steer the corpus toward float edge cases).
	special := []byte{0x01}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.0} {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(v))
	}
	f.Add(special, uint64(7))

	// Duplicate-heavy: every point repeated 8 times (dupes field = 7).
	dupes := []byte{0x1C}
	for _, v := range []float64{0, 0, 1, 1, 5, 5} {
		dupes = binary.LittleEndian.AppendUint64(dupes, math.Float64bits(v))
	}
	f.Add(dupes, uint64(3))

	// Two well-separated 2D blobs — the easy case, as a baseline seed.
	blobs := []byte{0x01}
	for _, v := range []float64{0, 0, 0.1, 0.1, 10, 10, 10.1, 10.1} {
		blobs = binary.LittleEndian.AppendUint64(blobs, math.Float64bits(v))
	}
	f.Add(blobs, uint64(42))

	// Denormals and huge magnitudes (clamped by the harness).
	extremes := []byte{0x05}
	for _, v := range []float64{5e-324, math.MaxFloat64, -math.MaxFloat64, 1e-300} {
		extremes = binary.LittleEndian.AppendUint64(extremes, math.Float64bits(v))
	}
	f.Add(extremes, uint64(9))

	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		data := fuzzDataset(raw)
		if len(data) == 0 {
			t.Skip()
		}
		// Cap the search so pathological inputs stay fast.
		cfg := SearchConfig{Threshold: 0.85, MaxK: 8, MaxIterations: 30, Restarts: 1, Patience: 1}
		res, err := Search(data, cfg, stats.NewRNG(seed))
		if err != nil {
			t.Fatalf("Search on %d valid points: %v", len(data), err)
		}
		checkClustering(t, res.Best, data)
		if res.StoppedAt < res.Best.K {
			t.Fatalf("StoppedAt %d < selected K %d", res.StoppedAt, res.Best.K)
		}
		if len(res.Scores) != res.StoppedAt {
			t.Fatalf("explored %d scores but StoppedAt = %d", len(res.Scores), res.StoppedAt)
		}
		for k, s := range res.Scores {
			if math.IsNaN(s) {
				t.Fatalf("BIC score for k=%d is NaN", k+1)
			}
		}

		for _, ds := range [][][]float64{data, rawDataset(raw)} {
			sameSearch(t, "search vs reference", mustSearch(t, ds, cfg, seed), refSearch(ds, cfg, stats.NewRNG(seed)))
			var prev Result
			for k := 1; k <= min(len(ds), 6); k++ {
				sameResult(t, fmt.Sprintf("fresh k=%d", k), KMeans(ds, k, stats.NewRNG(seed+uint64(k)), cfg.MaxIterations),
					refKMeansSeeded(ds, k, stats.NewRNG(seed+uint64(k)), cfg.MaxIterations, nil))
				if prev.K > 0 {
					sameResult(t, fmt.Sprintf("warm k=%d", k), KMeansSeeded(ds, k, stats.NewRNG(seed), cfg.MaxIterations, prev.Centroids),
						refKMeansSeeded(ds, k, stats.NewRNG(seed), cfg.MaxIterations, prev.Centroids))
				}
				prev = refKMeansSeeded(ds, k, stats.NewRNG(seed^0x5eed), cfg.MaxIterations, nil)
			}
		}
	})
}

func mustSearch(t *testing.T, data [][]float64, cfg SearchConfig, seed uint64) SearchResult {
	t.Helper()
	res, err := Search(data, cfg, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkClustering asserts the structural invariants of a Result.
func checkClustering(t *testing.T, res Result, data [][]float64) {
	t.Helper()
	n := len(data)
	if res.K < 1 || res.K > n {
		t.Fatalf("K = %d out of [1,%d]", res.K, n)
	}
	if len(res.Assign) != n {
		t.Fatalf("len(Assign) = %d, want %d", len(res.Assign), n)
	}
	if len(res.Centroids) != res.K || len(res.Sizes) != res.K {
		t.Fatalf("K=%d but %d centroids, %d sizes", res.K, len(res.Centroids), len(res.Sizes))
	}
	counted := make([]int, res.K)
	for i, a := range res.Assign {
		if a < 0 || a >= res.K {
			t.Fatalf("point %d assigned to cluster %d of %d", i, a, res.K)
		}
		counted[a]++
	}
	total := 0
	for k, size := range res.Sizes {
		if size != counted[k] {
			t.Fatalf("cluster %d: Sizes=%d but %d assigned", k, size, counted[k])
		}
		total += size
	}
	if total != n {
		t.Fatalf("sizes sum to %d, want %d", total, n)
	}
	for k, c := range res.Centroids {
		for d, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("centroid %d dim %d is %v", k, d, v)
			}
		}
	}
	if math.IsNaN(res.WCSS) || math.IsInf(res.WCSS, 0) || res.WCSS < 0 {
		t.Fatalf("WCSS = %v", res.WCSS)
	}
}
