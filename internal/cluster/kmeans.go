// Package cluster implements the clustering machinery of Section III-E
// and III-F of the paper: Lloyd's k-means with k-means++ seeding, the
// Bayesian Information Criterion score of Eq. (5)-(6), and the
// iterative cluster-count search with the spread-threshold selection
// rule (T = 0.85).
package cluster

import (
	"context"
	"fmt"
	"math"

	"repro/internal/pool"
	"repro/internal/xmath/linalg"
	"repro/internal/xmath/stats"
)

// Result is one clustering of a dataset.
type Result struct {
	// K is the number of clusters.
	K int
	// Centroids[k] is the mean of cluster k.
	Centroids [][]float64
	// Assign[i] is the cluster of point i.
	Assign []int
	// Sizes[k] is the number of points in cluster k.
	Sizes []int
	// WCSS is the within-cluster sum of squares (Eq. 4's objective).
	WCSS float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// DefaultMaxIterations bounds Lloyd's algorithm.
const DefaultMaxIterations = 100

// KMeans clusters data into k groups using k-means++ seeding and Lloyd
// iterations, deterministically in rng. maxIter <= 0 selects
// DefaultMaxIterations. It panics if k < 1, data is empty, k > len(data),
// or rows are ragged.
func KMeans(data [][]float64, k int, rng *stats.RNG, maxIter int) Result {
	return KMeansSeeded(data, k, rng, maxIter, nil)
}

// KMeansSeeded is KMeans with optional initial centroids. When fewer
// than k seeds are given the remainder are drawn k-means++-style from
// the points farthest from the existing seeds; extra seeds are ignored.
// Warm-starting from a (k-1)-clustering's centroids makes WCSS decrease
// (near-)monotonically in k, which the BIC search relies on.
func KMeansSeeded(data [][]float64, k int, rng *stats.RNG, maxIter int, seeds [][]float64) Result {
	n := len(data)
	if n == 0 {
		panic("cluster: KMeans on empty dataset")
	}
	if k < 1 || k > n {
		panic(fmt.Sprintf("cluster: k=%d out of range [1,%d]", k, n))
	}
	d := len(data[0])
	for i, row := range data {
		if len(row) != d {
			panic(fmt.Sprintf("cluster: row %d has %d dims, want %d", i, len(row), d))
		}
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}

	var centroids [][]float64
	switch {
	case len(seeds) == 0:
		centroids = seedPlusPlus(data, k, rng)
	default:
		centroids = make([][]float64, 0, k)
		for _, s := range seeds {
			if len(centroids) == k {
				break
			}
			if len(s) != d {
				panic(fmt.Sprintf("cluster: seed has %d dims, want %d", len(s), d))
			}
			centroids = append(centroids, clone(s))
		}
		centroids = extendPlusPlus(data, centroids, k, rng)
	}
	assign := make([]int, n)
	sizes := make([]int, k)
	res := Result{K: k}

	for iter := 0; iter < maxIter; iter++ {
		changed := assignAndSum(data, centroids, assign, sizes, iter == 0)
		// Update step: per-chunk partial sums merged in chunk order, so
		// the result is bit-identical regardless of parallelism.
		next := sumByCluster(data, assign, k, d)
		// taken marks points already consumed as reseeds this iteration:
		// when several clusters empty out at once, each must get a
		// DISTINCT farthest point — handing them all the same one (the
		// scan result never changes within the iteration) creates
		// duplicate centroids that keep a cluster empty forever.
		var taken map[int]bool
		for c := range next {
			if sizes[c] == 0 {
				// Empty cluster: reseed on the farthest unclaimed point
				// from its current centroid, the standard Lloyd repair.
				far, farD := -1, -1.0
				for i, x := range data {
					if taken[i] {
						continue
					}
					if dist := linalg.SquaredDistance(x, centroids[assign[i]]); dist > farD {
						far, farD = i, dist
					}
				}
				if far < 0 {
					// More empty clusters than points (mass-duplicate
					// data): no repair exists; keep the old centroid
					// rather than fabricating one.
					copy(next[c], centroids[c])
					continue
				}
				if taken == nil {
					taken = make(map[int]bool)
				}
				taken[far] = true
				copy(next[c], data[far])
				// Only count the repair as progress when it actually
				// moved the centroid; on degenerate data the same
				// reseed would otherwise churn until maxIter.
				if !equalVec(next[c], centroids[c]) {
					changed = true
				}
				continue
			}
			inv := 1 / float64(sizes[c])
			for j := range next[c] {
				next[c][j] *= inv
			}
		}
		centroids = next
		res.Iterations = iter + 1
		if !changed && iter > 0 {
			break
		}
	}

	// Final stats.
	assignAndSum(data, centroids, assign, sizes, true)
	wcss := 0.0
	for i, x := range data {
		wcss += linalg.SquaredDistance(x, centroids[assign[i]])
	}
	res.Centroids = centroids
	res.Assign = assign
	res.Sizes = sizes
	res.WCSS = wcss
	return res
}

// parallelChunk is the row granularity of the parallel assignment step.
const parallelChunk = 512

// parallelThreshold is the per-iteration work (n*k*d multiplications)
// above which k-means fans out across cores. Below it, goroutine
// overhead dominates.
const parallelThreshold = 1 << 21

// assignAndSum performs the k-means assignment step, filling assign and
// sizes, and reports whether any assignment changed (always true when
// force is set). Deterministic regardless of parallelism: each point's
// assignment is independent, and sizes are recounted from the final
// assignment.
func assignAndSum(data [][]float64, centroids [][]float64, assign []int, sizes []int, force bool) bool {
	n := len(data)
	k := len(centroids)
	d := 0
	if n > 0 {
		d = len(data[0])
	}
	assignRange := func(lo, hi int) bool {
		changed := false
		for i := lo; i < hi; i++ {
			x := data[i]
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if dist := linalg.SquaredDistance(x, centroids[c]); dist < bestD {
					best, bestD = c, dist
				}
			}
			if assign[i] != best {
				changed = true
				assign[i] = best
			}
		}
		return changed
	}

	var changed bool
	if n*k*d >= parallelThreshold && n > 2*parallelChunk {
		results := make([]bool, chunks(n))
		forChunks(n, func(ci, lo, hi int) { results[ci] = assignRange(lo, hi) })
		for _, r := range results {
			changed = changed || r
		}
	} else {
		changed = assignRange(0, n)
	}

	for i := range sizes {
		sizes[i] = 0
	}
	for _, a := range assign {
		sizes[a]++
	}
	return changed || force
}

// sumByCluster accumulates per-cluster coordinate sums. Partial sums are
// computed per fixed-size chunk and merged in chunk order, so the
// floating-point result is identical for any worker count.
func sumByCluster(data [][]float64, assign []int, k, d int) [][]float64 {
	n := len(data)
	out := make([][]float64, k)
	backing := make([]float64, k*d)
	for c := range out {
		out[c], backing = backing[:d], backing[d:]
	}
	sumRange := func(dst []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := dst[assign[i]*d : (assign[i]+1)*d]
			for j, v := range data[i] {
				row[j] += v
			}
		}
	}
	if n*d >= parallelThreshold/8 && n > 2*parallelChunk {
		partials := make([][]float64, chunks(n))
		forChunks(n, func(ci, lo, hi int) {
			part := make([]float64, k*d)
			sumRange(part, lo, hi)
			partials[ci] = part
		})
		// Merge in chunk order for bit-stable floating point.
		flat := make([]float64, k*d)
		for _, part := range partials {
			for j, v := range part {
				flat[j] += v
			}
		}
		for c := range out {
			copy(out[c], flat[c*d:(c+1)*d])
		}
		return out
	}
	flat := make([]float64, k*d)
	sumRange(flat, 0, n)
	for c := range out {
		copy(out[c], flat[c*d:(c+1)*d])
	}
	return out
}

// chunks is the number of parallelChunk-row chunks covering n rows.
func chunks(n int) int { return (n + parallelChunk - 1) / parallelChunk }

// forChunks runs fn over every parallelChunk-row chunk [lo, hi) of n
// rows across GOMAXPROCS workers. Callers write per-chunk results by
// chunk index ci and fold them in chunk order after the join, so the
// outcome is the same for any worker count. A panic in fn resurfaces
// here.
func forChunks(n int, fn func(ci, lo, hi int)) {
	_, err := pool.Claim(context.Background(), 0, chunks(n), func(int) (func(int), error) {
		return func(ci int) {
			lo := ci * parallelChunk
			fn(ci, lo, min(lo+parallelChunk, n))
		}, nil
	})
	if err != nil {
		panic(err)
	}
}

// seedPlusPlus picks k initial centroids with the k-means++ strategy:
// the first uniformly, each next with probability proportional to the
// squared distance from the nearest chosen centroid.
func seedPlusPlus(data [][]float64, k int, rng *stats.RNG) [][]float64 {
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, clone(data[rng.Intn(len(data))]))
	return extendPlusPlus(data, centroids, k, rng)
}

// extendPlusPlus grows an existing centroid set to k members with
// k-means++ draws.
func extendPlusPlus(data [][]float64, centroids [][]float64, k int, rng *stats.RNG) [][]float64 {
	n := len(data)
	d2 := make([]float64, n)
	for i := range d2 {
		best := math.Inf(1)
		for _, c := range centroids {
			if dist := linalg.SquaredDistance(data[i], c); dist < best {
				best = dist
			}
		}
		d2[i] = best
	}
	for len(centroids) < k {
		total := 0.0
		for _, v := range d2 {
			total += v
		}
		var idx int
		if total <= 0 {
			// All remaining points coincide with a centroid; pick
			// uniformly.
			idx = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, v := range d2 {
				acc += v
				if acc >= r {
					idx = i
					break
				}
			}
		}
		c := clone(data[idx])
		centroids = append(centroids, c)
		for i := range d2 {
			if dist := linalg.SquaredDistance(data[i], c); dist < d2[i] {
				d2[i] = dist
			}
		}
	}
	return centroids
}

// equalVec reports exact element-wise equality; used by the
// empty-cluster repair to detect a reseed that made no progress.
func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Representatives returns, for each cluster, the index of the point
// closest to its centroid — the frame MEGsim actually simulates for the
// cluster (Section III-E).
func Representatives(data [][]float64, res Result) []int {
	reps := make([]int, res.K)
	best := make([]float64, res.K)
	for c := range best {
		best[c] = math.Inf(1)
		reps[c] = -1
	}
	for i, x := range data {
		c := res.Assign[i]
		if dist := linalg.SquaredDistance(x, res.Centroids[c]); dist < best[c] {
			best[c] = dist
			reps[c] = i
		}
	}
	return reps
}
