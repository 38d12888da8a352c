package cluster

import (
	"math"
	"testing"

	"repro/internal/xmath/stats"
)

// dup returns n copies of the point p.
func dup(p []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = clone(p)
	}
	return out
}

// TestKMeansMultipleEmptyClustersGetDistinctReseeds plants seeds so far
// from the data that every point lands in cluster 0 on the first
// assignment, emptying all the others at once. The repair must hand
// each empty cluster a DIFFERENT point: the old code recomputed the
// same farthest point for all of them, producing duplicate centroids
// that left one cluster empty forever.
func TestKMeansMultipleEmptyClustersGetDistinctReseeds(t *testing.T) {
	data := append(dup([]float64{0, 0}, 5),
		[]float64{10, 0},
		[]float64{0, 10},
	)
	seeds := [][]float64{{0, 0}, {500, 500}, {600, 600}}
	res := KMeansSeeded(data, 3, stats.NewRNG(1), 0, seeds)

	for c, cen := range res.Centroids {
		for j, v := range cen {
			if math.IsNaN(v) {
				t.Fatalf("centroid %d dim %d is NaN", c, j)
			}
		}
	}
	// The data has 3 distinct locations, so a correct repair ends with
	// every cluster populated (the old code left one permanently empty).
	for c, s := range res.Sizes {
		if s == 0 {
			t.Fatalf("cluster %d still empty after reseed repair (sizes %v)", c, res.Sizes)
		}
	}
	// With all clusters landing on distinct locations the fit is exact.
	if res.WCSS != 0 {
		t.Fatalf("WCSS = %v, want 0 for 3 clusters over 3 distinct points", res.WCSS)
	}
	// Every cluster has a representative, so downstream frame selection
	// cannot hit the rep < 0 error path.
	for c, rep := range Representatives(data, res) {
		if rep < 0 {
			t.Fatalf("cluster %d has no representative", c)
		}
	}
	// Convergence, not churn: the repair must not re-trigger `changed`
	// every iteration once centroids stop moving.
	if res.Iterations >= defaultMaxIterations {
		t.Fatalf("repair churned for all %d iterations", res.Iterations)
	}
}

// TestKMeansMoreClustersThanDistinctPoints: with only two distinct
// locations and k=4, two clusters can never be filled. The repair must
// terminate quickly (no churn to maxIter), keep all centroids finite,
// and still fit the distinct locations exactly.
func TestKMeansMoreClustersThanDistinctPoints(t *testing.T) {
	data := append(dup([]float64{1, 2}, 6), dup([]float64{8, 9}, 2)...)
	seeds := [][]float64{{1, 2}, {100, 100}, {200, 200}, {300, 300}}
	res := KMeansSeeded(data, 4, stats.NewRNG(3), 0, seeds)

	for c, cen := range res.Centroids {
		for _, v := range cen {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("cluster %d centroid not finite: %v", c, cen)
			}
		}
	}
	if res.WCSS != 0 {
		t.Fatalf("WCSS = %v, want 0 (both distinct locations coverable)", res.WCSS)
	}
	if res.Iterations >= defaultMaxIterations {
		t.Fatalf("unfillable clusters churned for all %d iterations", res.Iterations)
	}
	nonEmpty := 0
	for _, s := range res.Sizes {
		if s > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Fatalf("non-empty clusters = %d, want 2 (one per distinct location)", nonEmpty)
	}
}

// TestBICDefinedWithEmptyClusters: an empty cluster must not count
// toward the parameter penalty or the variance denominator. With R = 3
// and a declared K = 3 but only two populated clusters, the score must
// be finite — the old code returned -Inf for any R <= K.
func TestBICDefinedWithEmptyClusters(t *testing.T) {
	data := [][]float64{{0, 0}, {0.5, 0}, {10, 10}}
	res := Result{
		K:         3,
		Sizes:     []int{2, 1, 0},
		WCSS:      0.125,
		Centroids: [][]float64{{0.25, 0}, {10, 10}, {0, 0}},
	}
	score := bic(data, res)
	if math.IsNaN(score) || math.IsInf(score, 0) {
		t.Fatalf("score = %v, want finite for a singleton fit with an empty cluster", score)
	}
	// The effective-K score must match an explicit K=2 result over the
	// same partition: the empty cluster carries no parameters.
	two := Result{K: 2, Sizes: []int{2, 1}, WCSS: 0.125}
	if got := bic(data, two); got != score {
		t.Fatalf("empty cluster changed the score: %v vs %v", score, got)
	}
}

// TestBICGuardsNaNAndZeroVariance pins the contract Search depends on:
// NaN statistics score -Inf (never propagate), a zero-variance fit
// stays +Inf, and all-singleton clusterings stay -Inf.
func TestBICGuardsNaNAndZeroVariance(t *testing.T) {
	data := [][]float64{{1}, {2}, {3}, {4}}
	if s := bic(data, Result{K: 2, Sizes: []int{2, 2}, WCSS: math.NaN()}); !math.IsInf(s, -1) {
		t.Fatalf("NaN WCSS scored %v, want -Inf", s)
	}
	if s := bic(data, Result{K: 2, Sizes: []int{2, 2}, WCSS: 0}); !math.IsInf(s, 1) {
		t.Fatalf("zero-variance fit scored %v, want +Inf", s)
	}
	if s := bic(data, Result{K: 4, Sizes: []int{1, 1, 1, 1}, WCSS: 0.5}); !math.IsInf(s, -1) {
		t.Fatalf("all-singleton fit scored %v, want -Inf", s)
	}
}

// TestSearchOnDuplicateHeavyData runs the full search end to end on a
// matrix dominated by repeated rows — the shape real frame-feature
// data takes when a scene holds still. It must terminate, choose a
// small k, and yield representatives for every cluster.
func TestSearchOnDuplicateHeavyData(t *testing.T) {
	data := append(dup([]float64{1, 1, 1}, 40),
		append(dup([]float64{9, 9, 9}, 3), dup([]float64{5, 1, 7}, 2)...)...)
	sr, err := Search(data, DefaultSearchConfig(), stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Best.K < 1 || sr.Best.K > 5 {
		t.Fatalf("search chose k=%d on 3 distinct locations", sr.Best.K)
	}
	for c, rep := range Representatives(data, sr.Best) {
		if sr.Best.Sizes[c] > 0 && rep < 0 {
			t.Fatalf("populated cluster %d has no representative", c)
		}
	}
	for _, s := range sr.Scores {
		if math.IsNaN(s) {
			t.Fatalf("NaN leaked into search scores: %v", sr.Scores)
		}
	}
}
