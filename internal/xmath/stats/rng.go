// Package stats provides the small statistical toolkit used throughout the
// MEGsim reproduction: descriptive statistics, relative-error helpers,
// percentiles and confidence bounds, and a deterministic random number
// generator.
//
// Everything in this package is deterministic given explicit seeds; no
// global random state is used anywhere in the repository so that every
// experiment is reproducible bit-for-bit.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator based
// on splitmix64. It is intentionally not math/rand: the stream must be
// stable across Go releases because workload generation, k-means seeding and
// the random sub-sampling baseline all derive from it.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// next returns the next 64 bits of the stream.
func (r *RNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Range returns a uniformly distributed float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *RNG) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct indices drawn uniformly from [0, n) in
// selection order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("stats: Sample called with k out of range")
	}
	return r.perm(n)[:k]
}

// Split derives an independent child generator. The child stream is a
// deterministic function of the parent state, and advancing the child does
// not affect the parent (beyond the single draw consumed here).
func (r *RNG) Split() *RNG {
	return NewRNG(r.next() ^ 0xd1b54a32d192ed03)
}
