// Package linalg implements the small amount of dense linear algebra the
// MEGsim methodology needs: vectors, matrices, Gauss-Jordan inversion, and
// the coefficient of multiple correlation (Eq. 2-3 in the paper), which
// requires inverting the predictor autocorrelation matrix.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/xmath/stats"
)

// errSingular is returned when a matrix cannot be inverted.
var errSingular = errors.New("linalg: matrix is singular")

// matrix is a dense row-major matrix.
type matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// newMatrix returns a zeroed rows x cols matrix.
func newMatrix(rows, cols int) *matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// identity returns the n x n identity matrix.
func identity(n int) *matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of bounds for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Clone returns a deep copy of m.
func (m *matrix) Clone() *matrix {
	c := newMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns the matrix-vector product m * v. It panics on dimension
// mismatch.
func (m *matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out
}

// Inverse returns the inverse of m computed by Gauss-Jordan elimination
// with partial pivoting. It returns errSingular when a pivot underflows.
func (m *matrix) Inverse() (*matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: cannot invert non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := identity(n)
	for col := 0; col < n; col++ {
		// Partial pivoting: pick the largest-magnitude pivot in this column.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a.At(r, col)) > math.Abs(a.At(pivot, col)) {
				pivot = r
			}
		}
		pv := a.At(pivot, col)
		if math.Abs(pv) < 1e-12 {
			return nil, errSingular
		}
		if pivot != col {
			a.swapRows(pivot, col)
			inv.swapRows(pivot, col)
		}
		// Scale pivot row.
		invPv := 1 / a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)*invPv)
			inv.Set(col, j, inv.At(col, j)*invPv)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func (m *matrix) swapRows(i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// dot returns the dot product of a and b. It panics on length mismatch.
func dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// EuclideanDistance returns the L2 distance between a and b. It panics on
// length mismatch.
func EuclideanDistance(a, b []float64) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}

// SquaredDistance returns the squared L2 distance between a and b. It
// panics on length mismatch.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: SquaredDistance length mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// MultipleCorrelation computes the coefficient of multiple correlation R^2
// between a set of predictor variables and a target variable, following
// Eq. (2)-(3) of the paper:
//
//	R^2 = c^T * Rxx^-1 * c
//
// predictors[i] is the i-th predictor's sample vector (all the same length
// as target). c holds the Pearson correlations between each predictor and
// the target; Rxx is the predictor autocorrelation matrix.
//
// Predictors with zero variance carry no information and are dropped before
// the computation (their correlation with anything is undefined). If no
// informative predictor remains, R^2 = 0. Because Rxx can be numerically
// singular when predictors are collinear (common for shader count vectors:
// several shaders fire once per frame and are perfectly correlated),
// ridge regularization is applied progressively until inversion succeeds.
// The result is clamped to [0, 1].
func MultipleCorrelation(predictors [][]float64, target []float64) (float64, error) {
	kept := make([][]float64, 0, len(predictors))
	for _, p := range predictors {
		if len(p) != len(target) {
			return 0, fmt.Errorf("linalg: predictor length %d != target length %d", len(p), len(target))
		}
		if stats.StdDev(p) > 0 {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 || stats.StdDev(target) == 0 {
		return 0, nil
	}
	n := len(kept)
	c := make([]float64, n)
	for i, p := range kept {
		c[i] = stats.Pearson(p, target)
	}
	rxx := newMatrix(n, n)
	for i := 0; i < n; i++ {
		rxx.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			r := stats.Pearson(kept[i], kept[j])
			rxx.Set(i, j, r)
			rxx.Set(j, i, r)
		}
	}
	inv, err := rxx.Inverse()
	for ridge := 1e-8; err != nil && ridge <= 1e-1; ridge *= 10 {
		reg := rxx.Clone()
		for i := 0; i < n; i++ {
			reg.Set(i, i, reg.At(i, i)+ridge)
		}
		inv, err = reg.Inverse()
	}
	if err != nil {
		return 0, err
	}
	r2 := dot(c, inv.MulVec(c))
	if r2 < 0 {
		r2 = 0
	}
	if r2 > 1 {
		r2 = 1
	}
	return r2, nil
}
