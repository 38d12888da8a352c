package stats

import (
	"math"
	"sort"
)

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// variance returns the population variance of xs (dividing by N, not N-1),
// or 0 for slices with fewer than one element. The population form is what
// the BIC likelihood of Eq. (6) in the paper uses.
func variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(variance(xs))
}

// covariance returns the population covariance of xs and ys. It panics if
// the slices have different lengths; it returns 0 for empty input.
func covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Covariance called with mismatched lengths")
	}
	if len(xs) == 0 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient between xs and ys
// (Eq. 1 in the paper). If either variable has zero variance the
// correlation is undefined and 0 is returned.
func Pearson(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return covariance(xs, ys) / (sx * sy)
}

// RelativeError returns |estimate-actual| / |actual| (as a fraction, not a
// percentage). When actual is zero it returns 0 if estimate is also zero
// and +Inf otherwise.
func RelativeError(estimate, actual float64) float64 {
	if actual == 0 {
		if estimate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(estimate-actual) / math.Abs(actual)
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using linear
// interpolation between closest ranks. It panics on empty input or p out of
// range.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic("stats: Percentile p out of [0,100]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MaxAtConfidence returns the maximum of xs after discarding the worst
// (1-confidence) fraction of values, i.e. the `confidence`-quantile. This
// is how the paper reports "maximum relative error in an interval of
// confidence of 95%" in Table IV.
func MaxAtConfidence(xs []float64, confidence float64) float64 {
	return Percentile(xs, confidence*100)
}
