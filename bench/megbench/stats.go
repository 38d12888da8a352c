package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// weightedMedian returns the value below which half of the total weight
// of xs lies, averaging the two values either side of an exact tie as
// median does (0 for none).
func weightedMedian(xs, ws []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	half := sum(ws) / 2
	cum := 0.0
	for k, i := range idx {
		cum += ws[i]
		switch {
		case math.Abs(cum-half) <= 1e-9*half && k+1 < len(idx):
			return (xs[i] + xs[idx[k+1]]) / 2
		case cum > half:
			return xs[i]
		}
	}
	return xs[idx[len(idx)-1]]
}

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

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// minTail is how many samples must lie beyond a reported tail
// percentile.
const minTail = 10

// tail returns the highest percentile of xs that has at least minTail
// samples beyond it, and the sample at that percentile: with n samples
// that is the (minTail+1)-th largest, at percentile 100·(n-minTail)/n.
// ok is false when there are too few samples for any tail.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n <= minTail {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return 100 * float64(n-minTail) / float64(n), s[n-minTail-1], true
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method). It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles of xs as a share of
// their median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
