package cluster

import (
	"context"
	"fmt"
	"math"
	"sync"

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

// Fresh k-means++ restarts are worthwhile at small k where the solution
// landscape is rough; at larger k the warm start dominates and fresh
// restarts only burn time, so they thin out to one at every
// freshRestartEvery-th k.
const (
	freshRestartMaxK  = 10
	freshRestartEvery = 5
)

// freshRuns is how many fresh k-means++ restarts the search runs at k.
func freshRuns(k, restarts int) int {
	switch {
	case k <= freshRestartMaxK:
		return restarts
	case k%freshRestartEvery == 0:
		return 1
	}
	return 0
}

// Explore runs the k loop of Search: k = 1, 2, ... up to MaxK, keeping
// at each k the lowest-WCSS of the fresh k-means++ restarts and the warm
// start from the previous k's clustering, and stopping after Patience
// consecutive k that do not improve on the best BIC score, or at a
// perfect fit. Threshold is not read.
//
// The runs are spread over GOMAXPROCS goroutines (see schedule) with
// the serial loop's results: the same generators, the same reduction
// in k order, the same obs counters, and rng advanced by exactly the
// splits the explored k consumed.
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

	// Every run's generator is split off up front, in the serial loop's
	// order: at each k the fresh restarts first and the warm start last.
	// The splits come from a copy of rng; rng then advances by the splits
	// of the k actually explored.
	s := &schedule{
		data:    data,
		cfg:     cfg,
		maxK:    maxK,
		first:   make([]int, maxK+1),
		warmRNG: make([]*stats.RNG, maxK+1),
		after:   make([]stats.RNG, maxK+1),
	}
	s.cond.L = &s.mu
	gen := *rng
	for k := 1; k <= maxK; k++ {
		s.first[k-1] = len(s.fresh)
		for range freshRuns(k, restarts) {
			s.fresh = append(s.fresh, freshRun{k: k, rng: gen.Split()})
		}
		if k > 1 {
			s.warmRNG[k] = gen.Split()
		}
		s.after[k] = gen
	}
	s.first[maxK] = len(s.fresh)

	// One chain and a helper on every other worker.
	ex := &Exploration{n: n}
	workers := pool.Workers(0, len(s.fresh)+1)
	_, err := pool.Claim(context.Background(), workers, workers, func(int) (func(int), error) {
		return func(i int) {
			if i == 0 {
				s.chain(ex)
			} else {
				s.help()
			}
		}, nil
	})
	*rng = s.after[s.k]
	if err != nil {
		return nil, fmt.Errorf("cluster: k=%d: %w", s.k, err)
	}
	return ex, nil
}

// schedule runs one Explore's k-means runs. Only the warm start at k
// depends on an earlier result (the run kept at k-1); fresh restarts
// depend only on the data and their generator. So one goroutine, the
// chain, walks k in order: it runs k's warm start, runs whichever of
// k's fresh restarts no helper has claimed, waits for the others, and
// reduces k's runs in the serial loop's order. Helper goroutines run
// fresh restarts ahead of it in k order, but no further than the first
// k past the chain's that has fresh restarts, which bounds both the
// results held and the work wasted when the stop rule fires. Restarts
// past the k the search stops at are dropped uncounted. Every result
// is computed exactly as the serial loop computes it and reduced in the
// same order, so the exploration, the obs counters and the advance of
// the caller's generator do not depend on the goroutine count.
type schedule struct {
	data [][]float64
	cfg  SearchConfig
	maxK int
	// fresh holds every fresh restart of k = 1..maxK in k order;
	// fresh[first[k-1]:first[k]] are k's.
	fresh []freshRun
	first []int
	// warmRNG[k] is the warm start's generator at k (nil at k = 1), and
	// after[k] the caller's generator once k's runs are split off.
	warmRNG []*stats.RNG
	after   []stats.RNG
	// k is the k the chain is at. Only the chain writes it; Explore
	// reads it after the pool has joined.
	k int

	mu   sync.Mutex
	cond sync.Cond // on mu: a claim horizon moved, a run finished, or the chain ended
	// next is the first fresh restart that may still be unclaimed,
	// horizon the largest k whose fresh restarts helpers may claim, and
	// ended is set once the chain returns (or panics).
	next    int
	horizon int
	ended   bool
}

// freshRun is one fresh k-means++ restart. state, and res and panicked
// once state is finished, are guarded by schedule.mu.
type freshRun struct {
	k        int
	rng      *stats.RNG
	state    uint8 // unclaimed, claimed or finished
	res      run
	panicked any
}

const (
	unclaimed uint8 = iota
	claimed
	finished
)

// chain is the serial k loop: warm starts, reduction and the stop rule.
func (s *schedule) chain(ex *Exploration) {
	defer s.end()
	var (
		cRuns  = s.cfg.Obs.Counter("cluster.kmeans.runs")
		cIters = s.cfg.Obs.Counter("cluster.kmeans.iterations")
		hIters = s.cfg.Obs.Histogram("cluster.kmeans.iterations_per_run")

		patience = max(s.cfg.Patience, 1)
		bestSeen = math.Inf(-1)
		dry      = 0
		prev     *run // the clustering kept at k-1; nil when none
	)
	for k := 1; k <= s.maxK; k++ {
		s.advance(k)
		var runs []run
		if k > 1 {
			// x-means-style warm start: refine the previous best
			// clustering with one extra centroid. This keeps WCSS
			// (near-)monotone in k so the BIC stop rule fires on the
			// real optimum, not on a k-means local-minimum artifact.
			var seeds [][]float64
			if prev != nil {
				seeds = prev.Centroids
			}
			warm := lloyd(s.data, k, s.warmRNG[k], s.cfg.MaxIterations, seeds, prev)
			prev = nil // its nearest state is no longer needed
			runs = append(s.collect(k), warm)
		} else {
			runs = s.collect(k)
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
		step := explored{score: math.Inf(-1)}
		if best != nil {
			kept := *best // the other runs of k are released with runs
			prev = &kept
			step = explored{centroids: best.Centroids, iterations: best.Iterations, score: bic(s.data, best.Result)}
		}
		ex.steps = append(ex.steps, step)
		score := step.score
		if math.IsInf(score, 1) {
			// Perfect fit: no larger k can do better.
			return
		}
		if score > bestSeen {
			bestSeen = score
			dry = 0
		} else if k > 1 {
			dry++
			if dry >= patience {
				return
			}
		}
	}
}

// advance moves the chain to k and the helpers' horizon to the first
// larger k with fresh restarts.
func (s *schedule) advance(k int) {
	s.k = k
	h := k + 1
	for h < s.maxK && s.first[h-1] == s.first[h] {
		h++
	}
	s.mu.Lock()
	s.horizon = h
	s.cond.Broadcast()
	s.mu.Unlock()
}

// collect returns k's fresh restarts in order, running here the ones no
// helper has claimed and waiting for the rest. A panic in a helper's
// run resurfaces here, at the k the serial loop would have hit it.
func (s *schedule) collect(k int) []run {
	lo, hi := s.first[k-1], s.first[k]
	for i := lo; i < hi; i++ {
		s.mu.Lock()
		mine := s.fresh[i].state == unclaimed
		if mine {
			s.fresh[i].state = claimed
		}
		s.mu.Unlock()
		if mine {
			s.runFresh(&s.fresh[i])
		}
	}
	runs := make([]run, 0, hi-lo+1)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := lo; i < hi; i++ {
		f := &s.fresh[i]
		for f.state != finished {
			s.cond.Wait()
		}
		if f.panicked != nil {
			panic(f.panicked)
		}
		runs = append(runs, f.res)
		f.res = run{}
	}
	return runs
}

// help runs fresh restarts in k order, within the horizon, until none
// are left or the chain has ended.
func (s *schedule) help() {
	for {
		s.mu.Lock()
		for !s.ended && s.next < len(s.fresh) && (s.fresh[s.next].state != unclaimed || s.fresh[s.next].k > s.horizon) {
			if s.fresh[s.next].state != unclaimed {
				s.next++
			} else {
				s.cond.Wait()
			}
		}
		if s.ended || s.next == len(s.fresh) {
			s.mu.Unlock()
			return
		}
		f := &s.fresh[s.next]
		f.state = claimed
		s.mu.Unlock()
		s.runFresh(f)
	}
}

// runFresh runs a claimed fresh restart and marks it finished, keeping
// a panic for collect to raise.
func (s *schedule) runFresh(f *freshRun) {
	var res run
	defer func() {
		p := recover()
		s.mu.Lock()
		f.state, f.res, f.panicked = finished, res, p
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	res = lloyd(s.data, f.k, f.rng, s.cfg.MaxIterations, nil, nil)
}

// end releases the helpers once the chain returns or panics.
func (s *schedule) end() {
	s.mu.Lock()
	s.ended = true
	s.cond.Broadcast()
	s.mu.Unlock()
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
