package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xmath/stats"
)

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *matrix {
	m := newMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func matricesAlmostEqual(a, b *matrix, eps float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if !almostEqual(a.Data[i], b.Data[i], eps) {
			return false
		}
	}
	return true
}

func TestIdentityInverse(t *testing.T) {
	id := identity(5)
	inv, err := id.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !matricesAlmostEqual(id, inv, 1e-12) {
		t.Fatal("inverse of identity is not identity")
	}
}

func TestInverseKnown(t *testing.T) {
	m := fromRows([][]float64{
		{4, 7},
		{2, 6},
	})
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	want := fromRows([][]float64{
		{0.6, -0.7},
		{-0.2, 0.4},
	})
	if !matricesAlmostEqual(inv, want, 1e-12) {
		t.Fatalf("inverse = %v, want %v", inv.Data, want.Data)
	}
}

func TestInverseSingular(t *testing.T) {
	m := fromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := m.Inverse(); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestInverseNonSquare(t *testing.T) {
	m := newMatrix(2, 3)
	if _, err := m.Inverse(); err == nil {
		t.Fatal("expected error inverting non-square matrix")
	}
}

func TestInverseRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 2 + r.Intn(6)
		m := newMatrix(n, n)
		// Diagonally dominant matrices are always invertible.
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := r.Norm(0, 1)
					m.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			m.Set(i, i, rowSum+1+r.Float64())
		}
		inv, err := m.Inverse()
		if err != nil {
			return false
		}
		prod := m.Mul(inv)
		return matricesAlmostEqual(prod, identity(n), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulKnown(t *testing.T) {
	a := fromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	b := fromRows([][]float64{
		{7, 8},
		{9, 10},
		{11, 12},
	})
	got := a.Mul(b)
	want := fromRows([][]float64{
		{58, 64},
		{139, 154},
	})
	if !matricesAlmostEqual(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got.Data, want.Data)
	}
}

func TestMulVec(t *testing.T) {
	m := fromRows([][]float64{
		{1, 2},
		{3, 4},
	})
	got := m.MulVec([]float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v, want [17 39]", got)
	}
}

func TestDotAndDistances(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if d := dot(a, b); d != 32 {
		t.Fatalf("Dot = %v, want 32", d)
	}
	if d := SquaredDistance(a, b); d != 27 {
		t.Fatalf("SquaredDistance = %v, want 27", d)
	}
	if d := EuclideanDistance(a, b); !almostEqual(d, math.Sqrt(27), 1e-12) {
		t.Fatalf("EuclideanDistance = %v, want sqrt(27)", d)
	}
	if d := EuclideanDistance(a, a); d != 0 {
		t.Fatalf("self-distance = %v, want 0", d)
	}
}

func TestDistanceTriangleInequalityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 1 + r.Intn(10)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = r.Norm(0, 5), r.Norm(0, 5), r.Norm(0, 5)
		}
		return EuclideanDistance(a, c) <= EuclideanDistance(a, b)+EuclideanDistance(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleCorrelationSinglePredictor(t *testing.T) {
	// With one predictor, R^2 must equal the squared Pearson correlation.
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{2.1, 3.9, 6.2, 8.1, 9.8, 12.2}
	r2, err := MultipleCorrelation([][]float64{x}, y)
	if err != nil {
		t.Fatal(err)
	}
	p := stats.Pearson(x, y)
	if !almostEqual(r2, p*p, 1e-9) {
		t.Fatalf("R^2 = %v, want Pearson^2 = %v", r2, p*p)
	}
}

func TestMultipleCorrelationPerfectFit(t *testing.T) {
	// y is an exact linear function of the two predictors: R^2 ~ 1.
	x1 := []float64{1, 2, 3, 4, 5, 6, 7}
	x2 := []float64{3, 1, 4, 1, 5, 9, 2}
	y := make([]float64, len(x1))
	for i := range y {
		y[i] = 2*x1[i] - 3*x2[i] + 7
	}
	r2, err := MultipleCorrelation([][]float64{x1, x2}, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r2, 1, 1e-6) {
		t.Fatalf("R^2 = %v, want ~1", r2)
	}
}

func TestMultipleCorrelationConstantPredictorsDropped(t *testing.T) {
	// Constant predictors carry no information and must not break R^2.
	x := []float64{1, 2, 3, 4, 5}
	constant := []float64{7, 7, 7, 7, 7}
	y := []float64{2, 4, 6, 8, 10}
	r2, err := MultipleCorrelation([][]float64{constant, x, constant}, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r2, 1, 1e-9) {
		t.Fatalf("R^2 = %v, want 1", r2)
	}
}

func TestMultipleCorrelationAllConstant(t *testing.T) {
	c := []float64{1, 1, 1}
	r2, err := MultipleCorrelation([][]float64{c}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r2 != 0 {
		t.Fatalf("R^2 = %v, want 0 for all-constant predictors", r2)
	}
}

func TestMultipleCorrelationCollinearPredictors(t *testing.T) {
	// Perfectly collinear predictors make Rxx singular; the ridge fallback
	// must still produce a valid, high R^2.
	x := []float64{1, 2, 3, 4, 5, 6}
	x2 := make([]float64, len(x))
	for i := range x {
		x2[i] = 2 * x[i]
	}
	y := []float64{1.1, 2.2, 2.9, 4.2, 5.1, 5.9}
	r2, err := MultipleCorrelation([][]float64{x, x2}, y)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.9 || r2 > 1 {
		t.Fatalf("R^2 = %v, want in (0.9, 1]", r2)
	}
}

func TestMultipleCorrelationLengthMismatch(t *testing.T) {
	_, err := MultipleCorrelation([][]float64{{1, 2}}, []float64{1, 2, 3})
	if err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestMultipleCorrelationBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 8 + r.Intn(30)
		nPred := 1 + r.Intn(4)
		preds := make([][]float64, nPred)
		for p := range preds {
			preds[p] = make([]float64, n)
			for i := range preds[p] {
				preds[p][i] = r.Norm(0, 3)
			}
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = r.Norm(0, 3)
		}
		r2, err := MultipleCorrelation(preds, y)
		if err != nil {
			return false
		}
		return r2 >= 0 && r2 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	m := fromRows([][]float64{
		{1, 2},
		{3, 4},
	})
	cl := m.Clone()
	cl.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original storage")
	}
}
