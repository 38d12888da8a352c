package core

import (
	"fmt"

	"repro/internal/xmath/stats"
)

// segment is one range of a random sub-sampling partition: Rep is the
// randomly chosen representative frame, Size the number of frames it
// stands for.
type segment struct {
	Rep  int
	Size int
}

// randomSubsample implements the naive baseline of Section V-C: the N
// frames are split into k equal ranges and one representative is drawn
// uniformly from each range (so each representative stands for a fixed
// range of frames, unlike MEGsim's variable-size clusters).
func randomSubsample(n, k int, rng *stats.RNG) ([]segment, error) {
	if n <= 0 || k <= 0 || k > n {
		return nil, fmt.Errorf("core: RandomSubsample(n=%d, k=%d) out of range", n, k)
	}
	segs := make([]segment, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		segs[i] = segment{Rep: lo + rng.Intn(hi-lo), Size: hi - lo}
	}
	return segs, nil
}

// subsampleEstimate extrapolates a per-frame metric from a partition:
// each representative's value scaled by its range size.
func subsampleEstimate(perFrame []float64, segs []segment) float64 {
	total := 0.0
	for _, s := range segs {
		total += perFrame[s.Rep] * float64(s.Size)
	}
	return total
}

// SubsampleMaxError runs `trials` independent random sub-samplings with
// k representatives and returns the maximum relative error of the
// estimated metric total at the given confidence level (the paper uses
// 1000 trials at 95%: the worst 5% of draws are discarded).
func SubsampleMaxError(perFrame []float64, k, trials int, confidence float64, rng *stats.RNG) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("core: trials must be positive")
	}
	if confidence <= 0 || confidence > 1 {
		return 0, fmt.Errorf("core: confidence %v out of (0,1]", confidence)
	}
	actual := stats.Sum(perFrame)
	errs := make([]float64, trials)
	for t := 0; t < trials; t++ {
		segs, err := randomSubsample(len(perFrame), k, rng)
		if err != nil {
			return 0, err
		}
		errs[t] = stats.RelativeError(subsampleEstimate(perFrame, segs), actual)
	}
	return stats.MaxAtConfidence(errs, confidence), nil
}

// periodicSample implements SMARTS-style systematic sampling (the other
// established sampling family the paper's Section II-C surveys): one
// representative every n/k frames at a fixed phase offset, each standing
// for its surrounding range. Deterministic given the offset.
func periodicSample(n, k, offset int) ([]segment, error) {
	if n <= 0 || k <= 0 || k > n {
		return nil, fmt.Errorf("core: PeriodicSample(n=%d, k=%d) out of range", n, k)
	}
	segs := make([]segment, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		rep := lo + offset%(hi-lo)
		segs[i] = segment{Rep: rep, Size: hi - lo}
	}
	return segs, nil
}

// PeriodicMaxError evaluates systematic sampling with k representatives
// across all distinct phase offsets (up to trials of them), returning
// the maximum relative error at the given confidence level — the
// systematic-sampling analogue of SubsampleMaxError.
func PeriodicMaxError(perFrame []float64, k, trials int, confidence float64) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("core: trials must be positive")
	}
	if confidence <= 0 || confidence > 1 {
		return 0, fmt.Errorf("core: confidence %v out of (0,1]", confidence)
	}
	n := len(perFrame)
	if n == 0 || k <= 0 || k > n {
		return 0, fmt.Errorf("core: PeriodicMaxError(n=%d, k=%d) out of range", n, k)
	}
	period := n / k
	if period < 1 {
		period = 1
	}
	if trials > period {
		trials = period
	}
	actual := stats.Sum(perFrame)
	errs := make([]float64, 0, trials)
	for o := 0; o < trials; o++ {
		offset := o * period / trials
		segs, err := periodicSample(n, k, offset)
		if err != nil {
			return 0, err
		}
		errs = append(errs, stats.RelativeError(subsampleEstimate(perFrame, segs), actual))
	}
	return stats.MaxAtConfidence(errs, confidence), nil
}

// FramesNeeded finds the smallest number of random-sub-sampling
// representatives whose confidence-bounded maximum relative error
// reaches targetErr — the Table IV comparison. The paper increases k one
// by one; since the error bound decreases (stochastically) in k, an
// exponential probe followed by binary search finds the same k several
// orders of magnitude faster. Each k is evaluated with an independent
// deterministic RNG substream so the search is reproducible.
func FramesNeeded(perFrame []float64, targetErr float64, trials int, confidence float64, seed uint64) (int, error) {
	n := len(perFrame)
	if n == 0 {
		return 0, fmt.Errorf("core: empty metric series")
	}
	if targetErr < 0 {
		return 0, fmt.Errorf("core: negative target error")
	}
	evaluate := func(k int) (float64, error) {
		return SubsampleMaxError(perFrame, k, trials, confidence, stats.NewRNG(seed^uint64(k)*0x9e3779b97f4a7c15))
	}

	// Exponential probe for an upper bound.
	hi := 1
	for hi < n {
		e, err := evaluate(hi)
		if err != nil {
			return 0, err
		}
		if e <= targetErr {
			break
		}
		hi *= 2
	}
	if hi >= n {
		// Even nearly-full sampling misses the target: everything must
		// be simulated.
		return n, nil
	}
	lo := hi/2 + 1
	if hi == 1 {
		return 1, nil
	}
	// Binary search for the smallest satisfying k in (hi/2, hi].
	for lo < hi {
		mid := (lo + hi) / 2
		e, err := evaluate(mid)
		if err != nil {
			return 0, err
		}
		if e <= targetErr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, nil
}
