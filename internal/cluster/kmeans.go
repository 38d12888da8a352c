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

// defaultMaxIterations bounds Lloyd's algorithm.
const defaultMaxIterations = 100

// KMeans clusters data into k groups using k-means++ seeding and Lloyd
// iterations, deterministically in rng. maxIter <= 0 selects
// defaultMaxIterations. It panics if k < 1, data is empty, k > len(data),
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
	if err := checkRows(data); err != nil {
		panic(err.Error())
	}
	d := len(data[0])
	for _, s := range seeds[:min(len(seeds), k)] {
		if len(s) != d {
			panic(fmt.Sprintf("cluster: seed has %d dims, want %d", len(s), d))
		}
	}
	return lloyd(data, k, rng, maxIter, seeds, nil).Result
}

// checkRows reports a ragged dataset.
func checkRows(data [][]float64) error {
	for i, row := range data {
		if len(row) != len(data[0]) {
			return fmt.Errorf("cluster: row %d has %d dims, want %d", i, len(row), len(data[0]))
		}
	}
	return nil
}

// run is a finished k-means run plus the per-point state of its final
// assignment pass. A warm start from the run's centroids inherits that
// state instead of recomputing every point's distance to them.
type run struct {
	Result
	st *nearest
}

// lloyd is KMeansSeeded on validated input. warm, when non-nil, is the
// finished run whose centroids are seeds (in order): its final pass
// already holds each point's nearest seed and the distance to it, so
// k-means++ seeding starts from them.
func lloyd(data [][]float64, k int, rng *stats.RNG, maxIter int, seeds [][]float64, warm *run) run {
	n, d := len(data), len(data[0])
	if maxIter <= 0 {
		maxIter = defaultMaxIterations
	}
	st := newNearest(n, d)
	var centroids [][]float64
	if len(seeds) == 0 {
		centroids = seedPlusPlus(data, k, rng, st)
	} else {
		centroids = make([][]float64, 0, k)
		for _, s := range seeds[:min(len(seeds), k)] {
			centroids = append(centroids, clone(s))
		}
		if warm != nil {
			st.inherit(warm.st)
		} else {
			st.scanSeeds(data, centroids)
		}
		centroids = extendPlusPlus(data, centroids, k, rng, st)
	}
	// Seeding left every point's nearest centroid in st, which is the
	// first Lloyd assignment: it needs no pass of its own.
	st.seeded(centroids)
	assign := st.assign
	sizes := make([]int, k)
	countSizes(assign, sizes)
	res := Result{K: k}

	// The update step writes each iteration's centroids into one of two
	// buffers, alternately. st.at only ever references the centroids of
	// the latest pass, which are in the other buffer (or the seeds). The
	// buffers are separate allocations, so the one the run does not end
	// on is freed with the run.
	var (
		flat    = [2][]float64{make([]float64, k*d), make([]float64, k*d)}
		bufs    = [2][][]float64{rows(flat[0], d), rows(flat[1], d)}
		scratch []float64
	)
	for iter := 0; iter < maxIter; iter++ {
		changed := true
		if iter > 0 {
			changed = st.pass(data, centroids, sizes, false)
		}
		// Update step: per-chunk partial sums merged in chunk order, so
		// the result is bit-identical regardless of parallelism.
		next := bufs[iter%2]
		scratch = sumByCluster(flat[iter%2], data, assign, scratch)
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

	// Final stats: the WCSS terms are the final pass's exact distances,
	// summed in point order.
	st.pass(data, centroids, sizes, true)
	wcss := 0.0
	for _, v := range st.dist {
		wcss += v
	}
	res.Centroids = centroids
	res.Assign = assign
	res.Sizes = sizes
	res.WCSS = wcss
	return run{Result: res, st: st}
}

// assignment assigns every point to its nearest centroid with one full
// scan, the final pass of a run whose bounds are gone: Assign, Sizes
// and WCSS come out exactly as the run that produced centroids
// computed them.
func assignment(data [][]float64, centroids [][]float64) (assign, sizes []int, wcss float64) {
	st := newNearest(len(data), len(data[0]))
	sizes = make([]int, len(centroids))
	st.pass(data, centroids, sizes, true)
	for _, v := range st.dist {
		wcss += v
	}
	return st.assign, sizes, wcss
}

// boundSlack is the absolute margin of the skip test: far above the
// underflow error of a squared distance (subnormal terms lose at most
// 2^-1075 each), far below any distance real data produces.
const boundSlack = 1e-150

// nearest is one k-means run's per-point assignment state, carried from
// pass to pass: the assigned centroid, the squared distance to it, and
// Hamerly's bounds (SDM 2010) on the Euclidean distances — upper to the
// assigned centroid, lower to every other one. Bounds are widened by a
// rounding margin when set and when shifted, so they hold for the true
// distances; a point whose bounds prove its centroid wins strictly
// keeps it without a scan, which is exactly what a full scan would
// decide. A point whose bounds fail is scanned in full with the same
// distance function, order and tie-break, so assignments are
// bit-identical to the plain Lloyd scan.
type nearest struct {
	assign []int
	// dist is the squared distance to the assigned centroid. During
	// seeding it is the k-means++ weight (no finite distance reads as
	// +Inf); after a final pass it holds the exact WCSS terms.
	dist []float64
	// upper and lower are the Euclidean bounds. During seeding lower
	// holds the squared distance to the runner-up instead. NaN or Inf
	// bounds mean unknown: the point is scanned.
	upper, lower []float64
	// at are the centroids the bounds refer to (nil: none yet).
	at [][]float64
	// eps is the relative rounding margin: a generous multiple of the
	// worst-case relative error of a d-term squared distance.
	eps float64
	// move and gap are pass's per-centroid scratch, reused across passes.
	move, gap []float64
}

func newNearest(n, d int) *nearest {
	st := &nearest{
		assign: make([]int, n),
		dist:   make([]float64, n),
		upper:  make([]float64, n),
		lower:  make([]float64, n),
		eps:    float64(d+8) * 0x1p-52,
	}
	for i := range st.dist {
		st.dist[i], st.lower[i] = math.Inf(1), math.Inf(1)
	}
	return st
}

// scanSeeds finds every point's nearest centroid and runner-up among
// the seeds, offering them in centroid order with a strict-< tie-break.
func (st *nearest) scanSeeds(data [][]float64, centroids [][]float64) {
	for c, cen := range centroids {
		st.offerAll(data, c, cen)
	}
}

// offerAll offers centroid c at cen to every point, four points per
// distance loop.
func (st *nearest) offerAll(data [][]float64, c int, cen []float64) {
	i := 0
	for ; i+4 <= len(data); i += 4 {
		s0, s1, s2, s3 := sqDist4(data[i], cen, data[i+1], cen, data[i+2], cen, data[i+3], cen)
		st.offer(i, c, s0)
		st.offer(i+1, c, s1)
		st.offer(i+2, c, s2)
		st.offer(i+3, c, s3)
	}
	for ; i < len(data); i++ {
		st.offer(i, c, linalg.SquaredDistance(data[i], cen))
	}
}

// offer folds centroid c at squared distance sd into point i's seeding
// state, the way a full scan folds it (see fold).
func (st *nearest) offer(i, c int, sd float64) {
	st.assign[i], st.dist[i], st.lower[i] = fold(st.assign[i], st.dist[i], st.lower[i], c, sd)
}

// inherit starts seeding from a finished run's final pass, whose
// centroids are the seeds: the same nearest centroid, the same
// distance (the k-means++ weight of a point with no finite distance is
// +Inf) and its lower bound as the runner-up distance.
func (st *nearest) inherit(from *nearest) {
	copy(st.assign, from.assign)
	for i, v := range from.dist {
		if math.IsNaN(v) {
			v = math.Inf(1)
		}
		st.dist[i] = v
		st.lower[i] = from.lower[i] * from.lower[i]
	}
}

// seeded turns the seeding state into bounds relative to centroids.
func (st *nearest) seeded(centroids [][]float64) {
	for i := range st.assign {
		st.upper[i] = math.Sqrt(st.dist[i]) * (1 + st.eps)
		st.lower[i] = math.Sqrt(st.lower[i]) * (1 - st.eps)
	}
	st.at = centroids
}

// skip is the bound test: it proves that the assigned centroid's
// computed squared distance is strictly below every other centroid's,
// so a full scan would keep the assignment.
func (st *nearest) skip(u, l float64) bool {
	return !math.IsInf(l, 1) && u*(1+st.eps)+boundSlack < l*(1-st.eps)
}

// parallelChunk is the row granularity of the parallel assignment step.
const parallelChunk = 512

// parallelThreshold is the per-iteration work (n*k*d multiplications)
// above which k-means fans out across cores. Below it, goroutine
// overhead dominates.
const parallelThreshold = 1 << 21

// pass performs the k-means assignment step against centroids, filling
// assign and sizes, and reports whether any assignment changed. With
// final set it also records every point's exact squared distance to its
// centroid in dist. Deterministic regardless of parallelism: each
// point's assignment is independent, and sizes are recounted from the
// final assignment.
func (st *nearest) pass(data [][]float64, centroids [][]float64, sizes []int, final bool) bool {
	n := len(data)
	k := len(centroids)
	d := len(data[0])

	// How far each centroid moved since the bounds were set: a point's
	// upper bound grows by its own centroid's move, its lower bound
	// shrinks by the largest move among the others. A non-finite move
	// (or no bounds yet) sends every point to the full scan.
	bounded := st.at != nil && len(st.at) == k
	if len(st.move) != k {
		st.move, st.gap = make([]float64, k), make([]float64, k)
	}
	move, gap := st.move, st.gap
	far, far1, far2 := -1, 0.0, 0.0
	for c := 0; bounded && c < k; c++ {
		m := math.Sqrt(linalg.SquaredDistance(st.at[c], centroids[c])) * (1 + st.eps)
		if math.IsNaN(m) || math.IsInf(m, 0) {
			bounded = false
			break
		}
		move[c] = m
		if m > far1 {
			far, far1, far2 = c, m, far1
		} else if m > far2 {
			far2 = m
		}
	}
	// gap[c] bounds from below the distance from centroid c to its
	// nearest other centroid: no other centroid is nearer to a point
	// than gap[a] minus the point's distance to its own centroid a.
	if bounded {
		for c := range gap {
			gap[c] = math.Inf(1)
		}
		for c := 0; c < k; c++ {
			for o := c + 1; o < k; o++ {
				g := math.Sqrt(linalg.SquaredDistance(centroids[c], centroids[o])) * (1 - st.eps)
				gap[c], gap[o] = math.Min(gap[c], g), math.Min(gap[o], g)
			}
		}
	}

	assignRange := func(lo, hi int) bool {
		changed := false
		for i := lo; i < hi; i++ {
			x := data[i]
			a := st.assign[i]
			if bounded {
				drift := far1
				if a == far {
					drift = far2
				}
				u := (st.upper[i] + move[a]) * (1 + st.eps)
				l := math.Max((st.lower[i]-drift)*(1-st.eps), (gap[a]-u)*(1-st.eps))
				if st.skip(u, l) {
					st.upper[i], st.lower[i] = u, l
					if final {
						st.dist[i] = linalg.SquaredDistance(x, centroids[a])
					}
					continue
				}
			}
			// Full scan in centroid order, four centroids per distance
			// loop.
			best, bestD, second := 0, math.Inf(1), math.Inf(1)
			c := 0
			for ; c+4 <= k; c += 4 {
				s0, s1, s2, s3 := sqDist4(x, centroids[c], x, centroids[c+1], x, centroids[c+2], x, centroids[c+3])
				best, bestD, second = fold(best, bestD, second, c, s0)
				best, bestD, second = fold(best, bestD, second, c+1, s1)
				best, bestD, second = fold(best, bestD, second, c+2, s2)
				best, bestD, second = fold(best, bestD, second, c+3, s3)
			}
			for ; c < k; c++ {
				best, bestD, second = fold(best, bestD, second, c, linalg.SquaredDistance(x, centroids[c]))
			}
			if math.IsInf(bestD, 1) {
				// No finite distance: the scan keeps centroid 0, whose
				// distance may be NaN rather than +Inf.
				bestD = linalg.SquaredDistance(x, centroids[0])
			}
			st.upper[i] = math.Sqrt(bestD) * (1 + st.eps)
			st.lower[i] = math.Sqrt(second) * (1 - st.eps)
			st.dist[i] = bestD
			if a != best {
				changed = true
				st.assign[i] = best
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
	st.at = centroids
	countSizes(st.assign, sizes)
	return changed
}

// fold folds centroid c at squared distance sd into a scan's nearest
// centroid and runner-up distance. Centroids are folded in index order,
// so the strict < keeps the first minimum — the full scan's tie-break —
// and NaN never wins.
func fold(best int, bestD, second float64, c int, sd float64) (int, float64, float64) {
	if sd < bestD {
		return c, sd, bestD
	}
	if sd < second {
		second = sd
	}
	return best, bestD, second
}

// sqDist4 returns the squared distances of four pairs of equal-length
// vectors (ai, bi) in one loop. Each pair has its own accumulator,
// summed in index order with linalg.SquaredDistance's expression, so
// each result is bit-identical to SquaredDistance(ai, bi); the four
// dependency chains overlap.
func sqDist4(a0, b0, a1, b1, a2, b2, a3, b3 []float64) (s0, s1, s2, s3 float64) {
	n := len(a0)
	if len(b0) != n || len(a1) != n || len(b1) != n || len(a2) != n || len(b2) != n || len(a3) != n || len(b3) != n {
		panic("cluster: sqDist4 length mismatch")
	}
	for i := range a0 {
		d0 := a0[i] - b0[i]
		d1 := a1[i] - b1[i]
		d2 := a2[i] - b2[i]
		d3 := a3[i] - b3[i]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}

// countSizes recounts cluster sizes from an assignment.
func countSizes(assign, sizes []int) {
	for i := range sizes {
		sizes[i] = 0
	}
	for _, a := range assign {
		sizes[a]++
	}
}

// sumByCluster overwrites dst, k rows of d coordinates in row-major
// order, with the per-cluster coordinate sums: cleared, then added in
// point order. Above the parallel threshold, partial sums are computed
// per fixed-size chunk in scratch (grown as needed and returned for the
// next call) and merged in chunk order, so the floating-point result is
// identical for any worker count.
func sumByCluster(dst []float64, data [][]float64, assign []int, scratch []float64) []float64 {
	n, d := len(data), len(data[0])
	sumRange := func(dst []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			x := data[i]
			row := dst[assign[i]*d:][:len(x)]
			for j, v := range x {
				row[j] += v
			}
		}
	}
	clear(dst)
	if n*d >= parallelThreshold/8 && n > 2*parallelChunk {
		size := len(dst)
		if len(scratch) < chunks(n)*size {
			scratch = make([]float64, chunks(n)*size)
		}
		forChunks(n, func(ci, lo, hi int) {
			part := scratch[ci*size : (ci+1)*size]
			clear(part)
			sumRange(part, lo, hi)
		})
		// Merge in chunk order for bit-stable floating point.
		for ci := range chunks(n) {
			for j, v := range scratch[ci*size : (ci+1)*size] {
				dst[j] += v
			}
		}
		return scratch
	}
	sumRange(dst, 0, n)
	return scratch
}

// rows views flat as consecutive rows of d values.
func rows(flat []float64, d int) [][]float64 {
	out := make([][]float64, len(flat)/d)
	for c := range out {
		out[c] = flat[c*d : (c+1)*d : (c+1)*d]
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
func seedPlusPlus(data [][]float64, k int, rng *stats.RNG, st *nearest) [][]float64 {
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, clone(data[rng.Intn(len(data))]))
	st.scanSeeds(data, centroids)
	return extendPlusPlus(data, centroids, k, rng, st)
}

// extendPlusPlus grows an existing centroid set to k members with
// k-means++ draws. st holds every point's nearest existing centroid and
// the squared distance to it (the draw weight); each drawn centroid is
// offered to every point, so st ends as the full scan over all k.
func extendPlusPlus(data [][]float64, centroids [][]float64, k int, rng *stats.RNG, st *nearest) [][]float64 {
	n := len(data)
	d2 := st.dist
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
		st.offerAll(data, len(centroids)-1, c)
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
	keep := func(i int, dist float64) {
		if c := res.Assign[i]; dist < best[c] {
			best[c] = dist
			reps[c] = i
		}
	}
	cen := func(i int) []float64 { return res.Centroids[res.Assign[i]] }
	i := 0
	for ; i+4 <= len(data); i += 4 {
		s0, s1, s2, s3 := sqDist4(data[i], cen(i), data[i+1], cen(i+1), data[i+2], cen(i+2), data[i+3], cen(i+3))
		keep(i, s0)
		keep(i+1, s1)
		keep(i+2, s2)
		keep(i+3, s3)
	}
	for ; i < len(data); i++ {
		keep(i, linalg.SquaredDistance(data[i], cen(i)))
	}
	return reps
}
