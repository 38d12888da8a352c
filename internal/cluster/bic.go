package cluster

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/xmath/stats"
)

// bic computes the Bayesian Information Criterion score of a clustering
// using the x-means formulation the paper cites ([28], [29]), Eq. (5)-(6):
//
//	BIC(φ) = l̂(D) − (p/2)·log R
//	l̂(D)  = Σ_n R_n·log R_n − R·log R − (R·M/2)·log(2πσ²) − (M/2)(R−K)
//
// with R points of dimension M in K clusters, p = K(M+1) free parameters,
// and σ² the average variance of the Euclidean distance from each point
// to its centroid, estimated as WCSS/(R−K).
//
// Higher is better. Clusterings where every point sits in its own
// cluster or with an undefined variance are degenerate; they get -Inf
// so the search never selects them over meaningful fits. K counts only
// non-empty clusters: an empty cluster (possible on duplicate-heavy
// data even after the Lloyd reseed repair) carries no fitted
// parameters, so it must neither inflate the penalty term nor push the
// variance denominator R-K to zero. That keeps the score defined for
// singleton-cluster results such as K = R with one empty cluster.
func bic(data [][]float64, res Result) float64 {
	r := float64(len(data))
	if len(data) == 0 || res.K <= 0 {
		return math.Inf(-1)
	}
	// Effective cluster count: only clusters that captured points.
	kEff := 0
	for _, rn := range res.Sizes {
		if rn > 0 {
			kEff++
		}
	}
	if kEff == 0 {
		// No Sizes recorded (hand-built Result): fall back to the
		// declared K so a well-formed clustering still scores.
		kEff = res.K
	}
	m := float64(len(data[0]))
	k := float64(kEff)
	if len(data) <= kEff || math.IsNaN(res.WCSS) {
		return math.Inf(-1)
	}
	sigma2 := res.WCSS / (r - k)
	if sigma2 <= 0 {
		// A perfect fit: the likelihood is unbounded. Treat as the
		// best possible score so exact clusterings win.
		return math.Inf(1)
	}

	logLikelihood := 0.0
	for _, rn := range res.Sizes {
		if rn > 0 {
			logLikelihood += float64(rn) * math.Log(float64(rn))
		}
	}
	logLikelihood -= r * math.Log(r)
	logLikelihood -= (r * m / 2) * math.Log(2*math.Pi*sigma2)
	logLikelihood -= (m / 2) * (r - k)

	p := k * (m + 1)
	return logLikelihood - (p/2)*math.Log(r)
}

// SearchConfig controls the iterative cluster-count search of
// Section III-F.
type SearchConfig struct {
	// Threshold is T: the chosen clustering must score at least
	// min + T*(max-min) over the explored BIC scores. The paper uses
	// 0.85.
	Threshold float64
	// MaxK caps the search (0 = min(n/2, 56)).
	MaxK int
	// MaxIterations bounds each k-means run (0 = default).
	MaxIterations int
	// Restarts runs each small k this many times with different seeds
	// and keeps the lowest-WCSS result (0 = 1). Beyond k = 10 the
	// search relies on x-means-style warm starts (refining the previous
	// clustering with one more centroid), which keeps WCSS monotone in
	// k at a fraction of the cost.
	Restarts int
	// Patience is how many consecutive non-improving k values end the
	// search. The paper stops at the first BIC drop (Patience = 1);
	// the default 3 tolerates k-means seed noise.
	Patience int
	// Obs, when non-nil and enabled, receives k-means run/iteration
	// counters and a per-run iteration histogram from the search.
	Obs *obs.Registry
}

// DefaultSearchConfig returns the paper's settings (T = 0.85) with
// restart/patience smoothing of k-means initialization noise.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{Threshold: 0.85, Restarts: 3, Patience: 3}
}

// SearchResult is the outcome of the cluster-count search.
type SearchResult struct {
	// Best is the selected clustering.
	Best Result
	// Scores[i] is the BIC score of k = i+1, for every k explored.
	Scores []float64
	// StoppedAt is the largest k explored: where Patience consecutive
	// k failed to improve on the best score, a perfect fit ended the
	// search, or MaxK was reached.
	StoppedAt int
}

// Search explores k = 1, 2, ... computing the BIC score for each
// clustering until Patience consecutive k fail to improve on the best
// score (or MaxK), and selects the smallest k whose score reaches
// min + Threshold*(max-min) — the procedure of Section III-F. It is
// Explore followed by Cut.
func Search(data [][]float64, cfg SearchConfig, rng *stats.RNG) (SearchResult, error) {
	if err := checkThreshold(cfg.Threshold); err != nil {
		return SearchResult{}, err
	}
	ex, err := Explore(data, cfg, rng)
	if err != nil {
		return SearchResult{}, err
	}
	return ex.Cut(data, cfg.Threshold)
}

// Exploration is the threshold-free half of the cluster-count search:
// for every k explored, the kept clustering's centroids, iteration count
// and BIC score. It is a pure function of the data, the seed and the
// search settings other than Threshold, so one exploration serves every
// threshold. It holds no per-point data; Cut rebuilds the chosen
// clustering's assignment from its centroids.
type Exploration struct {
	n     int
	steps []explored
}

// explored is the clustering the search kept at one k. centroids is nil
// when no run at that k had a finite WCSS (the kept clustering is then
// the zero Result, as the search has always reported it).
type explored struct {
	centroids  [][]float64
	iterations int
	score      float64
}

// Explore runs the k loop of Search: k = 1, 2, ... up to MaxK, keeping
// at each k the lowest-WCSS of the fresh k-means++ restarts and the warm
// start from the previous k's clustering, and stopping after Patience
// consecutive k that do not improve on the best BIC score, or at a
// perfect fit. Threshold is not read.
func Explore(data [][]float64, cfg SearchConfig, rng *stats.RNG) (*Exploration, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("cluster: search on empty dataset")
	}
	if err := checkRows(data); err != nil {
		return nil, err
	}
	maxK := cfg.MaxK
	if maxK <= 0 {
		maxK = n / 2
		if maxK > 56 {
			maxK = 56
		}
	}
	if maxK > n {
		maxK = n
	}
	if maxK < 1 {
		maxK = 1
	}
	restarts := cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	patience := cfg.Patience
	if patience < 1 {
		patience = 1
	}

	// Fresh k-means++ restarts are worthwhile at small k where the
	// solution landscape is rough; at larger k the warm start dominates
	// and fresh restarts only burn time, so they thin out.
	const freshRestartMaxK = 10
	const freshRestartEvery = 5

	var (
		cRuns  = cfg.Obs.Counter("cluster.kmeans.runs")
		cIters = cfg.Obs.Counter("cluster.kmeans.iterations")
		hIters = cfg.Obs.Histogram("cluster.kmeans.iterations_per_run")
	)

	ex := &Exploration{n: n}
	var (
		bestSeen = math.Inf(-1)
		dry      = 0
		prev     *run // the clustering kept at k-1; nil when none
	)
	for k := 1; k <= maxK; k++ {
		fresh := 1
		if k <= freshRestartMaxK {
			fresh = restarts
		} else if k%freshRestartEvery != 0 {
			fresh = 0
		}
		// Every run's generator is split off up front, fresh restarts
		// first and the warm start last, so the runs can go in parallel
		// and still draw exactly what a serial loop would.
		rngs := make([]*stats.RNG, 0, fresh+1)
		for r := 0; r < fresh; r++ {
			rngs = append(rngs, rng.Split())
		}
		if k > 1 {
			rngs = append(rngs, rng.Split())
		}
		runs := make([]run, len(rngs))
		_, err := pool.Claim(context.Background(), 0, len(runs), func(int) (func(int), error) {
			return func(r int) {
				if r < fresh {
					runs[r] = lloyd(data, k, rngs[r], cfg.MaxIterations, nil, nil)
					return
				}
				// x-means-style warm start: refine the previous best
				// clustering with one extra centroid. This keeps WCSS
				// (near-)monotone in k so the BIC stop rule fires on the
				// real optimum, not on a k-means local-minimum artifact.
				var seeds [][]float64
				if prev != nil {
					seeds = prev.Centroids
				}
				runs[r] = lloyd(data, k, rngs[r], cfg.MaxIterations, seeds, prev)
			}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: k=%d: %w", k, err)
		}
		var best *run
		bestWCSS := math.Inf(1)
		for r := range runs {
			cRuns.Inc()
			cIters.Add(uint64(runs[r].Iterations))
			hIters.Observe(uint64(runs[r].Iterations))
			if runs[r].WCSS < bestWCSS {
				best, bestWCSS = &runs[r], runs[r].WCSS
			}
		}
		prev = best
		step := explored{score: math.Inf(-1)}
		if best != nil {
			step = explored{centroids: best.Centroids, iterations: best.Iterations, score: bic(data, best.Result)}
		}
		ex.steps = append(ex.steps, step)
		score := step.score
		if math.IsInf(score, 1) {
			// Perfect fit: no larger k can do better.
			break
		}
		if score > bestSeen {
			bestSeen = score
			dry = 0
		} else if k > 1 {
			dry++
			if dry >= patience {
				break
			}
		}
	}
	return ex, nil
}

// scores returns the BIC score of every k explored (scores()[i] is
// k = i+1), in a fresh slice.
func (e *Exploration) scores() []float64 {
	scores := make([]float64, len(e.steps))
	for i, s := range e.steps {
		scores[i] = s.score
	}
	return scores
}

// Cut applies the selection rule of Section III-F to the exploration:
// the smallest k whose score reaches min + threshold*(max-min) over the
// explored scores. data must be the dataset that was explored; the
// chosen clustering's Assign, Sizes and WCSS are rebuilt from its
// centroids with one assignment pass, which is the pass k-means ended
// on, so they are exactly what the search computed. Cut never modifies
// the exploration, and the result shares no memory with it.
func (e *Exploration) Cut(data [][]float64, threshold float64) (SearchResult, error) {
	if err := checkThreshold(threshold); err != nil {
		return SearchResult{}, err
	}
	if len(data) != e.n {
		return SearchResult{}, fmt.Errorf("cluster: cut of a %d-point exploration on %d points", e.n, len(data))
	}
	scores := e.scores()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range scores {
		if math.IsInf(s, 0) {
			continue
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	chosen := len(scores) - 1
	if !math.IsInf(lo, 0) && !math.IsInf(hi, 0) && hi > lo {
		cut := lo + threshold*(hi-lo)
		for i, s := range scores {
			if s >= cut {
				chosen = i
				break
			}
		}
	} else {
		// All scores equal (or a perfect fit ended the search): pick
		// the last explored, which is the best known.
		for i, s := range scores {
			if math.IsInf(s, 1) {
				chosen = i
				break
			}
		}
	}
	var best Result
	if step := e.steps[chosen]; step.centroids != nil {
		centroids := make([][]float64, len(step.centroids))
		for c, v := range step.centroids {
			centroids[c] = clone(v)
		}
		best = Result{K: len(centroids), Centroids: centroids, Iterations: step.iterations}
		best.Assign, best.Sizes, best.WCSS = assignment(data, centroids)
	}
	return SearchResult{Best: best, Scores: scores, StoppedAt: len(scores)}, nil
}

func checkThreshold(t float64) error {
	if t < 0 || t > 1 {
		return fmt.Errorf("cluster: threshold %v out of [0,1]", t)
	}
	return nil
}
