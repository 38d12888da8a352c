package cluster

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/xmath/stats"
)

// blobs generates k well-separated Gaussian clusters.
func blobs(rng *stats.RNG, k, perCluster, dims int, separation float64) ([][]float64, []int) {
	var data [][]float64
	var labels []int
	for c := 0; c < k; c++ {
		center := make([]float64, dims)
		for j := range center {
			center[j] = float64(c) * separation * float64(j%2*2-1)
		}
		center[0] = float64(c) * separation
		for i := 0; i < perCluster; i++ {
			p := make([]float64, dims)
			for j := range p {
				p[j] = center[j] + rng.Norm(0, 1)
			}
			data = append(data, p)
			labels = append(labels, c)
		}
	}
	return data, labels
}

func TestKMeansRecoverWellSeparatedBlobs(t *testing.T) {
	rng := stats.NewRNG(7)
	data, labels := blobs(rng, 3, 50, 4, 30)
	res := KMeans(data, 3, stats.NewRNG(1), 0)
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	// All points with the same true label must share an assignment.
	for c := 0; c < 3; c++ {
		first := -1
		for i, l := range labels {
			if l != c {
				continue
			}
			if first == -1 {
				first = res.Assign[i]
			} else if res.Assign[i] != first {
				t.Fatalf("true cluster %d split across k-means clusters", c)
			}
		}
	}
}

func TestKMeansSizesMatchAssignments(t *testing.T) {
	rng := stats.NewRNG(11)
	data, _ := blobs(rng, 4, 30, 3, 20)
	res := KMeans(data, 4, stats.NewRNG(2), 0)
	counts := make([]int, res.K)
	for _, a := range res.Assign {
		counts[a]++
	}
	for c := range counts {
		if counts[c] != res.Sizes[c] {
			t.Fatalf("cluster %d: size %d vs counted %d", c, res.Sizes[c], counts[c])
		}
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(data) {
		t.Fatalf("sizes sum to %d, want %d", total, len(data))
	}
}

func TestKMeansDeterministicGivenSeed(t *testing.T) {
	rng := stats.NewRNG(13)
	data, _ := blobs(rng, 3, 40, 5, 15)
	a := KMeans(data, 5, stats.NewRNG(99), 0)
	b := KMeans(data, 5, stats.NewRNG(99), 0)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
	if a.WCSS != b.WCSS {
		t.Fatal("same seed produced different WCSS")
	}
}

func TestKMeansK1(t *testing.T) {
	rng := stats.NewRNG(17)
	data, _ := blobs(rng, 2, 20, 3, 10)
	res := KMeans(data, 1, stats.NewRNG(1), 0)
	if res.Sizes[0] != len(data) {
		t.Fatal("k=1 must contain everything")
	}
	// Centroid must be the global mean.
	for j := 0; j < 3; j++ {
		mean := 0.0
		for _, x := range data {
			mean += x[j]
		}
		mean /= float64(len(data))
		if math.Abs(res.Centroids[0][j]-mean) > 1e-9 {
			t.Fatalf("centroid[%d] = %v, want %v", j, res.Centroids[0][j], mean)
		}
	}
}

func TestKMeansWCSSDecreasesWithK(t *testing.T) {
	rng := stats.NewRNG(23)
	data, _ := blobs(rng, 4, 40, 4, 12)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		res := KMeans(data, k, stats.NewRNG(5), 0)
		if res.WCSS > prev+1e-6 {
			t.Fatalf("WCSS rose from %v to %v at k=%d", prev, res.WCSS, k)
		}
		prev = res.WCSS
	}
}

func TestKMeansNoEmptyClusters(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 20 + rng.Intn(60)
		data := make([][]float64, n)
		for i := range data {
			data[i] = []float64{rng.Norm(0, 10), rng.Norm(0, 10)}
		}
		k := 1 + rng.Intn(8)
		res := KMeans(data, k, rng.Split(), 0)
		for _, s := range res.Sizes {
			if s == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":  func() { KMeans(nil, 1, stats.NewRNG(1), 0) },
		"k0":     func() { KMeans([][]float64{{1}}, 0, stats.NewRNG(1), 0) },
		"k>n":    func() { KMeans([][]float64{{1}}, 2, stats.NewRNG(1), 0) },
		"ragged": func() { KMeans([][]float64{{1, 2}, {1}}, 1, stats.NewRNG(1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRepresentativesAreClosestToCentroid(t *testing.T) {
	rng := stats.NewRNG(31)
	data, _ := blobs(rng, 3, 30, 3, 25)
	res := KMeans(data, 3, stats.NewRNG(3), 0)
	reps := Representatives(data, res)
	if len(reps) != 3 {
		t.Fatalf("reps = %v", reps)
	}
	for c, rep := range reps {
		if rep < 0 || res.Assign[rep] != c {
			t.Fatalf("representative %d of cluster %d invalid", rep, c)
		}
		repDist := sq(data[rep], res.Centroids[c])
		for i := range data {
			if res.Assign[i] == c && sq(data[i], res.Centroids[c]) < repDist-1e-12 {
				t.Fatalf("point %d closer to centroid %d than representative", i, c)
			}
		}
	}
}

func sq(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func TestBICPrefersTrueK(t *testing.T) {
	rng := stats.NewRNG(37)
	data, _ := blobs(rng, 4, 60, 3, 40)
	var scores []float64
	for k := 1; k <= 8; k++ {
		res := KMeans(data, k, stats.NewRNG(7), 0)
		scores = append(scores, bic(data, res))
	}
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	if best+1 != 4 {
		t.Fatalf("BIC chose k=%d, want 4 (scores %v)", best+1, scores)
	}
}

func TestBICDegenerateCases(t *testing.T) {
	data := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	res := KMeans(data, 3, stats.NewRNG(1), 0)
	if !math.IsInf(bic(data, res), -1) {
		t.Fatal("K == n must score -Inf")
	}
	if !math.IsInf(bic(nil, Result{K: 1}), -1) {
		t.Fatal("empty data must score -Inf")
	}
	// Identical points: perfect fit at k=1.
	same := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	res1 := KMeans(same, 1, stats.NewRNG(1), 0)
	if !math.IsInf(bic(same, res1), 1) {
		t.Fatal("zero-variance fit should score +Inf")
	}
}

func TestSearchFindsReasonableK(t *testing.T) {
	rng := stats.NewRNG(41)
	data, _ := blobs(rng, 5, 50, 4, 50)
	sr, err := Search(data, DefaultSearchConfig(), stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Best.K < 3 || sr.Best.K > 8 {
		t.Fatalf("search chose k=%d for 5 blobs (scores %v)", sr.Best.K, sr.Scores)
	}
	if len(sr.Scores) < sr.Best.K {
		t.Fatalf("scores shorter than chosen k")
	}
}

func TestSearchThresholdTradeoff(t *testing.T) {
	// Lower T must never choose more clusters than higher T.
	rng := stats.NewRNG(43)
	data, _ := blobs(rng, 6, 40, 4, 30)
	low, err := Search(data, SearchConfig{Threshold: 0.3}, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Search(data, SearchConfig{Threshold: 0.95}, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if low.Best.K > high.Best.K {
		t.Fatalf("T=0.3 chose %d clusters, T=0.95 chose %d", low.Best.K, high.Best.K)
	}
}

func TestSearchHandlesUniformData(t *testing.T) {
	// Identical points: search must not crash and must pick k=1.
	data := make([][]float64, 50)
	for i := range data {
		data[i] = []float64{1, 2, 3}
	}
	sr, err := Search(data, DefaultSearchConfig(), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Best.K != 1 {
		t.Fatalf("uniform data clustered into %d", sr.Best.K)
	}
}

func TestSearchValidation(t *testing.T) {
	if _, err := Search(nil, DefaultSearchConfig(), stats.NewRNG(1)); err == nil {
		t.Fatal("accepted empty dataset")
	}
	if _, err := Search([][]float64{{1}}, SearchConfig{Threshold: 2}, stats.NewRNG(1)); err == nil {
		t.Fatal("accepted threshold > 1")
	}
}

func TestSearchRespectsMaxK(t *testing.T) {
	rng := stats.NewRNG(47)
	data, _ := blobs(rng, 8, 30, 3, 50)
	sr, err := Search(data, SearchConfig{Threshold: 0.85, MaxK: 3}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Best.K > 3 || sr.StoppedAt > 3 {
		t.Fatalf("MaxK=3 violated: k=%d stopped=%d", sr.Best.K, sr.StoppedAt)
	}
}

func TestSearchRestartsImproveOrEqual(t *testing.T) {
	rng := stats.NewRNG(53)
	data, _ := blobs(rng, 4, 40, 4, 8) // poorly separated: restarts matter
	one, err := Search(data, SearchConfig{Threshold: 0.85, MaxK: 6, Restarts: 1}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	many, err := Search(data, SearchConfig{Threshold: 0.85, MaxK: 6, Restarts: 5}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	// With the same final k, more restarts can only lower WCSS.
	if many.Best.K == one.Best.K && many.Best.WCSS > one.Best.WCSS+1e-9 {
		t.Fatalf("restarts raised WCSS: %v vs %v", many.Best.WCSS, one.Best.WCSS)
	}
}

func TestKMeansBitStableAcrossParallelism(t *testing.T) {
	// Results must be bit-identical regardless of GOMAXPROCS: the
	// parallel reduction merges fixed-size chunks in order.
	rng := stats.NewRNG(77)
	n, d := 3000, 24 // large enough to trigger the parallel path
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, d)
		for j := range data[i] {
			data[i][j] = rng.Norm(float64(i%6*10), 1)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	serial := KMeans(data, 6, stats.NewRNG(5), 0)
	runtime.GOMAXPROCS(prev)
	parallel := KMeans(data, 6, stats.NewRNG(5), 0)
	if serial.WCSS != parallel.WCSS {
		t.Fatalf("WCSS differs: %v vs %v", serial.WCSS, parallel.WCSS)
	}
	for i := range serial.Assign {
		if serial.Assign[i] != parallel.Assign[i] {
			t.Fatalf("assignment differs at %d", i)
		}
	}
	for c := range serial.Centroids {
		for j := range serial.Centroids[c] {
			if serial.Centroids[c][j] != parallel.Centroids[c][j] {
				t.Fatalf("centroid (%d,%d) differs", c, j)
			}
		}
	}
}

func TestAgglomerativeRecoversBlobs(t *testing.T) {
	rng := stats.NewRNG(61)
	data, labels := blobs(rng, 3, 40, 4, 30)
	res, err := Agglomerative(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	for c := 0; c < 3; c++ {
		first := -1
		for i, l := range labels {
			if l != c {
				continue
			}
			if first == -1 {
				first = res.Assign[i]
			} else if res.Assign[i] != first {
				t.Fatalf("true cluster %d split", c)
			}
		}
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(data) {
		t.Fatalf("sizes sum to %d", total)
	}
}

func TestAgglomerativeDeterministic(t *testing.T) {
	rng := stats.NewRNG(67)
	data, _ := blobs(rng, 4, 25, 3, 15)
	a, err := Agglomerative(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Agglomerative(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("agglomerative not deterministic")
		}
	}
	if a.WCSS != b.WCSS {
		t.Fatal("WCSS differs")
	}
}

func TestAgglomerativeComparableToKMeans(t *testing.T) {
	// On well-separated data both methods find the same partition, so
	// their WCSS should match closely.
	rng := stats.NewRNG(71)
	data, _ := blobs(rng, 5, 30, 4, 40)
	ward, err := Agglomerative(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	km := KMeans(data, 5, stats.NewRNG(9), 0)
	if ward.WCSS > km.WCSS*1.05+1e-9 {
		t.Fatalf("Ward WCSS %v much worse than k-means %v", ward.WCSS, km.WCSS)
	}
}

func TestAgglomerativeK1AndKn(t *testing.T) {
	rng := stats.NewRNG(73)
	data, _ := blobs(rng, 2, 10, 2, 10)
	one, err := Agglomerative(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.K != 1 || one.Sizes[0] != len(data) {
		t.Fatalf("k=1 result %+v", one)
	}
	all, err := Agglomerative(data, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if all.K != len(data) || all.WCSS != 0 {
		t.Fatalf("k=n should be a perfect fit: k=%d wcss=%v", all.K, all.WCSS)
	}
}

func TestAgglomerativeSizeBound(t *testing.T) {
	data := make([][]float64, 4097)
	for i := range data {
		data[i] = []float64{float64(i)}
	}
	if _, err := Agglomerative(data, 2); err == nil {
		t.Fatal("accepted oversized input")
	}
}

func TestXMeansFindsPlantedClusters(t *testing.T) {
	rng := stats.NewRNG(81)
	data, labels := blobs(rng, 4, 40, 4, 40)
	res, err := XMeans(data, 1, 16, stats.NewRNG(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 4 || res.K > 10 {
		t.Fatalf("x-means chose k=%d for 4 blobs", res.K)
	}
	// Planted clusters must not be mixed.
	clusterLabel := map[int]int{}
	for i, l := range labels {
		c := res.Assign[i]
		if prev, ok := clusterLabel[c]; ok && prev != l {
			t.Fatalf("cluster %d mixes blobs %d and %d", c, prev, l)
		}
		clusterLabel[c] = l
	}
}

func TestXMeansRespectsBounds(t *testing.T) {
	rng := stats.NewRNG(83)
	data, _ := blobs(rng, 6, 30, 3, 50)
	res, err := XMeans(data, 2, 3, stats.NewRNG(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 || res.K > 3 {
		t.Fatalf("k=%d outside [2,3]", res.K)
	}
}

func TestXMeansValidation(t *testing.T) {
	if _, err := XMeans(nil, 1, 2, stats.NewRNG(1), 0); err == nil {
		t.Fatal("accepted empty data")
	}
	data := [][]float64{{1}, {2}, {3}}
	if _, err := XMeans(data, 0, 2, stats.NewRNG(1), 0); err == nil {
		t.Fatal("accepted kMin=0")
	}
	if _, err := XMeans(data, 2, 1, stats.NewRNG(1), 0); err == nil {
		t.Fatal("accepted kMax<kMin")
	}
}

func TestXMeansUniformDataStaysAtKMin(t *testing.T) {
	data := make([][]float64, 40)
	for i := range data {
		data[i] = []float64{3, 3}
	}
	res, err := XMeans(data, 1, 10, stats.NewRNG(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Fatalf("uniform data split into %d", res.K)
	}
}
