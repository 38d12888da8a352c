package cluster

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/xmath/linalg"
	"repro/internal/xmath/stats"
)

// refKMeansSeeded is plain Lloyd k-means: k-means++ seeding that
// computes every distance it needs, and a full n×k scan on every
// assignment pass. KMeansSeeded must match it bit for bit — its bounds
// only skip distances that cannot change an assignment.
func refKMeansSeeded(data [][]float64, k int, rng *stats.RNG, maxIter int, seeds [][]float64) Result {
	n, d := len(data), len(data[0])
	if maxIter <= 0 {
		maxIter = defaultMaxIterations
	}
	var centroids [][]float64
	if len(seeds) == 0 {
		centroids = [][]float64{clone(data[rng.Intn(n)])}
	} else {
		for _, s := range seeds[:min(len(seeds), k)] {
			centroids = append(centroids, clone(s))
		}
	}
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

	assign := make([]int, n)
	sizes := make([]int, k)
	scan := func() bool {
		changed := false
		for i, x := range data {
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
		countSizes(assign, sizes)
		return changed
	}
	res := Result{K: k}
	for iter := 0; iter < maxIter; iter++ {
		changed := scan() || iter == 0
		flat := make([]float64, k*d)
		sumByCluster(flat, data, assign, nil)
		next := rows(flat, d)
		var taken map[int]bool
		for c := range next {
			if sizes[c] == 0 {
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
					copy(next[c], centroids[c])
					continue
				}
				if taken == nil {
					taken = make(map[int]bool)
				}
				taken[far] = true
				copy(next[c], data[far])
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
	scan()
	wcss := 0.0
	for i, x := range data {
		wcss += linalg.SquaredDistance(x, centroids[assign[i]])
	}
	res.Centroids, res.Assign, res.Sizes, res.WCSS = centroids, assign, sizes, wcss
	return res
}

// refExplore is the k loop of the cluster-count search as one plain
// serial loop over refKMeansSeeded: every run's generator split off rng
// as it starts, each k's runs reduced in order, the obs counters
// recorded into cfg.Obs as they are reduced. It returns the clustering
// kept at every explored k (the zero Result where no run had a finite
// WCSS) and its BIC score: what Explore must reproduce at any
// GOMAXPROCS, along with the counters and rng's state afterwards.
func refExplore(data [][]float64, cfg SearchConfig, rng *stats.RNG) (results []Result, scores []float64) {
	n := len(data)
	maxK := cfg.MaxK
	if maxK <= 0 {
		maxK = min(n/2, 56)
	}
	maxK = max(min(maxK, n), 1)
	restarts := max(cfg.Restarts, 1)
	patience := max(cfg.Patience, 1)
	var (
		cRuns    = cfg.Obs.Counter("cluster.kmeans.runs")
		cIters   = cfg.Obs.Counter("cluster.kmeans.iterations")
		hIters   = cfg.Obs.Histogram("cluster.kmeans.iterations_per_run")
		bestSeen = math.Inf(-1)
		dry      = 0
		prevRes  Result
	)
	for k := 1; k <= maxK; k++ {
		best, bestWCSS := Result{}, math.Inf(1)
		keep := func(res Result) {
			cRuns.Inc()
			cIters.Add(uint64(res.Iterations))
			hIters.Observe(uint64(res.Iterations))
			if res.WCSS < bestWCSS {
				best, bestWCSS = res, res.WCSS
			}
		}
		fresh := 1
		if k <= 10 {
			fresh = restarts
		} else if k%5 != 0 {
			fresh = 0
		}
		for r := 0; r < fresh; r++ {
			keep(refKMeansSeeded(data, k, rng.Split(), cfg.MaxIterations, nil))
		}
		if k > 1 {
			keep(refKMeansSeeded(data, k, rng.Split(), cfg.MaxIterations, prevRes.Centroids))
		}
		prevRes = best
		score := bic(data, best)
		results = append(results, best)
		scores = append(scores, score)
		if math.IsInf(score, 1) {
			break
		}
		if score > bestSeen {
			bestSeen, dry = score, 0
		} else if k > 1 {
			if dry++; dry >= patience {
				break
			}
		}
	}
	return results, scores
}

// refSearch is refExplore followed by the selection rule applied to
// the kept Results directly: the reference Explore + Cut must
// reproduce.
func refSearch(data [][]float64, cfg SearchConfig, rng *stats.RNG) SearchResult {
	results, scores := refExplore(data, cfg, rng)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range scores {
		if !math.IsInf(s, 0) {
			lo, hi = math.Min(lo, s), math.Max(hi, s)
		}
	}
	chosen := len(scores) - 1
	if !math.IsInf(lo, 0) && !math.IsInf(hi, 0) && hi > lo {
		cut := lo + cfg.Threshold*(hi-lo)
		for i, s := range scores {
			if s >= cut {
				chosen = i
				break
			}
		}
	} else {
		for i, s := range scores {
			if math.IsInf(s, 1) {
				chosen = i
				break
			}
		}
	}
	return SearchResult{Best: results[chosen], Scores: scores, StoppedAt: len(scores)}
}

// sameBits reports bit-for-bit equality of two floats (NaN included).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameResult asserts bit-for-bit equality of two clusterings.
func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.K != want.K || got.Iterations != want.Iterations ||
		!reflect.DeepEqual(got.Assign, want.Assign) || !reflect.DeepEqual(got.Sizes, want.Sizes) ||
		!sameBits(got.WCSS, want.WCSS) || len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("%s: got K=%d iters=%d WCSS=%v sizes=%v, want K=%d iters=%d WCSS=%v sizes=%v",
			what, got.K, got.Iterations, got.WCSS, got.Sizes, want.K, want.Iterations, want.WCSS, want.Sizes)
	}
	for c := range got.Centroids {
		for j := range got.Centroids[c] {
			if !sameBits(got.Centroids[c][j], want.Centroids[c][j]) {
				t.Fatalf("%s: centroid %d dim %d = %v, want %v", what, c, j, got.Centroids[c][j], want.Centroids[c][j])
			}
		}
	}
}

// sameSearch asserts bit-for-bit equality of two search results.
func sameSearch(t *testing.T, what string, got, want SearchResult) {
	t.Helper()
	sameResult(t, what, got.Best, want.Best)
	if got.StoppedAt != want.StoppedAt || len(got.Scores) != len(want.Scores) {
		t.Fatalf("%s: stopped at %d with %d scores, want %d with %d", what, got.StoppedAt, len(got.Scores), want.StoppedAt, len(want.Scores))
	}
	for i := range got.Scores {
		if !sameBits(got.Scores[i], want.Scores[i]) {
			t.Fatalf("%s: score of k=%d = %v, want %v", what, i+1, got.Scores[i], want.Scores[i])
		}
	}
}

// duplicateHeavy is a dataset of a few distinct points, each repeated
// many times: the k-means failure mode (empty clusters, reseeds,
// zero-variance fits).
func duplicateHeavy(rng *stats.RNG, distinct, copies, dims int) [][]float64 {
	var data [][]float64
	for p := 0; p < distinct; p++ {
		v := make([]float64, dims)
		for j := range v {
			v[j] = float64(rng.Intn(4))
		}
		for c := 0; c < copies; c++ {
			data = append(data, clone(v))
		}
	}
	return data
}

// TestExploreCutMatchesSearch: one exploration cut at every threshold
// gives exactly what a full search at that threshold gives, and both
// match the serial reference search bit for bit — on well-separated,
// overlapping and duplicate-heavy data. Cutting leaves the exploration
// unchanged, so the same cut twice is identical too.
func TestExploreCutMatchesSearch(t *testing.T) {
	rng := stats.NewRNG(71)
	sep, _ := blobs(rng, 5, 40, 4, 40)
	loose, _ := blobs(rng, 6, 60, 8, 3)
	cases := []struct {
		name string
		data [][]float64
		cfg  SearchConfig
	}{
		{"separated", sep, DefaultSearchConfig()},
		{"overlapping", loose, SearchConfig{Restarts: 2, Patience: 2, MaxK: 24}},
		{"uniform-random", benchData(300, 6), SearchConfig{Restarts: 3, Patience: 3, MaxK: 30}},
		{"duplicate-heavy", duplicateHeavy(rng, 7, 20, 3), DefaultSearchConfig()},
		{"all-identical", duplicateHeavy(rng, 1, 30, 2), DefaultSearchConfig()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := Explore(tc.data, tc.cfg, stats.NewRNG(5))
			if err != nil {
				t.Fatal(err)
			}
			for _, th := range []float64{0, 0.70, 0.80, 0.85, 0.90, 0.95, 1} {
				cfg := tc.cfg
				cfg.Threshold = th
				cut, err := ex.Cut(tc.data, th)
				if err != nil {
					t.Fatal(err)
				}
				again, err := ex.Cut(tc.data, th)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cut, again) {
					t.Fatalf("T=%v: a second cut differs from the first", th)
				}
				sr, err := Search(tc.data, cfg, stats.NewRNG(5))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cut, sr) {
					t.Fatalf("T=%v: Explore+Cut differs from Search", th)
				}
				sameSearch(t, "vs reference", cut, refSearch(tc.data, cfg, stats.NewRNG(5)))
			}
		})
	}
}

func TestCutValidation(t *testing.T) {
	data := benchData(40, 2)
	ex, err := Explore(data, DefaultSearchConfig(), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{-0.1, 1.5} {
		if _, err := ex.Cut(data, th); err == nil {
			t.Errorf("Cut accepted threshold %v", th)
		}
	}
	if _, err := ex.Cut(data[:39], 0.85); err == nil {
		t.Error("Cut accepted a dataset of a different size")
	}
	if _, err := Explore(nil, DefaultSearchConfig(), stats.NewRNG(1)); err == nil {
		t.Error("Explore accepted an empty dataset")
	}
	if _, err := Explore([][]float64{{1, 2}, {1}}, DefaultSearchConfig(), stats.NewRNG(1)); err == nil {
		t.Error("Explore accepted a ragged dataset")
	}
}

// TestKMeansMatchesReferenceLloyd: fresh and warm-started runs match
// plain Lloyd bit for bit across k, including runs long enough for the
// bounds to carry over many iterations, and runs large enough (n*k*d
// at or above parallelThreshold) to take the chunked parallel
// assignment.
func TestKMeansMatchesReferenceLloyd(t *testing.T) {
	rng := stats.NewRNG(3)
	loose, _ := blobs(rng, 8, 50, 12, 2.5)
	large := benchData(2048, 36)
	if 2048*32*36 < parallelThreshold {
		t.Fatal("large dataset no longer reaches the chunked assignment")
	}
	cases := []struct {
		data     [][]float64
		kLo, kHi int
	}{
		{loose, 1, 12},
		{benchData(600, 16), 1, 12},
		{duplicateHeavy(rng, 5, 12, 4), 1, 12},
		{large, 26, 32},
	}
	for _, tc := range cases {
		var prev Result
		if tc.kLo > 1 {
			prev = refKMeansSeeded(tc.data, tc.kLo-1, stats.NewRNG(uint64(99+tc.kLo)), 0, nil)
		}
		for k := tc.kLo; k <= tc.kHi; k++ {
			sameResult(t, "fresh", KMeans(tc.data, k, stats.NewRNG(uint64(k)), 0),
				refKMeansSeeded(tc.data, k, stats.NewRNG(uint64(k)), 0, nil))
			if k > 1 {
				sameResult(t, "warm", KMeansSeeded(tc.data, k, stats.NewRNG(uint64(k)), 0, prev.Centroids),
					refKMeansSeeded(tc.data, k, stats.NewRNG(uint64(k)), 0, prev.Centroids))
			}
			prev = refKMeansSeeded(tc.data, k, stats.NewRNG(uint64(100+k)), 0, nil)
		}
	}
}
