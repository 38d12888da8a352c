package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.next() == b.next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 agree on %d/100 draws; streams should differ", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(9)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if !almostEqual(mean, 0.5, 0.01) {
		t.Fatalf("mean of uniform draws = %v, want ~0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) returned %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNorm(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm(5, 2)
	}
	if m := mean(xs); !almostEqual(m, 5, 0.05) {
		t.Fatalf("Norm mean = %v, want ~5", m)
	}
	if s := StdDev(xs); !almostEqual(s, 2, 0.05) {
		t.Fatalf("Norm stddev = %v, want ~2", s)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	p := r.perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGSampleDistinct(t *testing.T) {
	r := NewRNG(17)
	s := r.Sample(100, 30)
	if len(s) != 30 {
		t.Fatalf("Sample length = %d, want 30", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Sample not distinct/in-range: %v", s)
		}
		seen[v] = true
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(23)
	child := parent.Split()
	// Drawing from child must not change the parent's subsequent stream.
	ref := NewRNG(23)
	ref.next() // account for the draw consumed by Split
	for i := 0; i < 100; i++ {
		child.next()
	}
	for i := 0; i < 100; i++ {
		if parent.next() != ref.next() {
			t.Fatal("child draws perturbed parent stream")
		}
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := variance(xs); v != 4 {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if mean(nil) != 0 || variance(nil) != 0 || Sum(nil) != 0 {
		t.Fatal("empty-slice statistics should be 0")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almostEqual(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEqual(r, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("Pearson with constant variable = %v, want 0", r)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 5 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm(0, 10)
			ys[i] = r.Norm(0, 10)
		}
		p := Pearson(xs, ys)
		return p >= -1-1e-9 && p <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeError(t *testing.T) {
	if e := RelativeError(101, 100); !almostEqual(e, 0.01, 1e-12) {
		t.Fatalf("RelativeError = %v, want 0.01", e)
	}
	if e := RelativeError(99, 100); !almostEqual(e, 0.01, 1e-12) {
		t.Fatalf("RelativeError = %v, want 0.01", e)
	}
	if e := RelativeError(0, 0); e != 0 {
		t.Fatalf("RelativeError(0,0) = %v, want 0", e)
	}
	if e := RelativeError(1, 0); !math.IsInf(e, 1) {
		t.Fatalf("RelativeError(1,0) = %v, want +Inf", e)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("P0 = %v, want 1", p)
	}
	if p := Percentile(xs, 100); p != 10 {
		t.Fatalf("P100 = %v, want 10", p)
	}
	if p := Percentile(xs, 50); !almostEqual(p, 5.5, 1e-12) {
		t.Fatalf("P50 = %v, want 5.5", p)
	}
}

func TestPercentileSingle(t *testing.T) {
	if p := Percentile([]float64{42}, 95); p != 42 {
		t.Fatalf("P95 of single = %v, want 42", p)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestMaxAtConfidence(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	got := MaxAtConfidence(xs, 0.95)
	if !almostEqual(got, 95.05, 1e-9) {
		t.Fatalf("MaxAtConfidence(0.95) = %v, want 95.05", got)
	}
}

func TestMinMaxArg(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if minOf(xs) != 1 || maxOf(xs) != 9 {
		t.Fatal("Min/Max wrong")
	}
}

func TestCovarianceSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 3 + r.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm(0, 5)
			ys[i] = r.Norm(0, 5)
		}
		return almostEqual(covariance(xs, ys), covariance(ys, xs), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm(0, 100)
		}
		return variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
