// Package simmatrix builds and renders the frame Similarity Matrix of
// Section III-D: an upper-triangular N x N matrix whose (x, y) cell is
// the Euclidean distance between the vectors of characteristics of
// frames x and y. Rendered as an image (Fig. 5), darker means more
// similar; cluster assignments can be overlaid along the diagonal
// (Fig. 6).
package simmatrix

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/xmath/linalg"
)

// Matrix is a symmetric distance matrix stored as its upper triangle.
type Matrix struct {
	n    int
	data []float64 // row-major upper triangle including diagonal
	max  float64
}

// New computes the similarity matrix of the given frame vectors.
func New(vectors [][]float64) *Matrix {
	n := len(vectors)
	m := &Matrix{n: n, data: make([]float64, n*(n+1)/2)}
	for x := 0; x < n; x++ {
		for y := x; y < n; y++ {
			d := linalg.EuclideanDistance(vectors[x], vectors[y])
			m.data[m.index(x, y)] = d
			if d > m.max {
				m.max = d
			}
		}
	}
	return m
}

// N returns the number of frames.
func (m *Matrix) N() int { return m.n }

// MaxDistance returns the largest pairwise distance.
func (m *Matrix) MaxDistance() float64 { return m.max }

func (m *Matrix) index(x, y int) int {
	if y < x {
		x, y = y, x
	}
	// Row x of the upper triangle starts after rows 0..x-1, which hold
	// n, n-1, ..., n-x+1 entries.
	return x*m.n - x*(x-1)/2 + (y - x)
}

// At returns the distance between frames x and y (symmetric).
func (m *Matrix) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= m.n || y >= m.n {
		panic(fmt.Sprintf("simmatrix: index (%d,%d) out of range for %d frames", x, y, m.n))
	}
	return m.data[m.index(x, y)]
}

// WritePGM renders the matrix as a binary PGM image (grayscale): darker
// pixels mean more similar frames, with the diagonal black — matching
// the presentation of Fig. 5.
func (m *Matrix) WritePGM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", m.n, m.n); err != nil {
		return fmt.Errorf("simmatrix: writing PGM header: %w", err)
	}
	scale := 0.0
	if m.max > 0 {
		scale = 255 / m.max
	}
	for y := 0; y < m.n; y++ {
		for x := 0; x < m.n; x++ {
			v := byte(m.At(x, y) * scale)
			if err := bw.WriteByte(v); err != nil {
				return fmt.Errorf("simmatrix: writing PGM data: %w", err)
			}
		}
	}
	return bw.Flush()
}

// clusterPalette holds distinguishable RGB colors for cluster overlays.
var clusterPalette = [][3]byte{
	{230, 25, 75}, {60, 180, 75}, {255, 225, 25}, {0, 130, 200},
	{245, 130, 48}, {145, 30, 180}, {70, 240, 240}, {240, 50, 230},
	{210, 245, 60}, {250, 190, 212}, {0, 128, 128}, {220, 190, 255},
	{170, 110, 40}, {255, 250, 200}, {128, 0, 0}, {170, 255, 195},
}

// WritePPM renders the matrix with the given cluster assignment drawn
// along the diagonal in per-cluster colors (Fig. 6). assign must have
// length N; the band is diagBand pixels wide (>= 1).
func (m *Matrix) WritePPM(w io.Writer, assign []int, diagBand int) error {
	if len(assign) != m.n {
		return fmt.Errorf("simmatrix: assignment length %d != %d frames", len(assign), m.n)
	}
	if diagBand < 1 {
		diagBand = 1
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", m.n, m.n); err != nil {
		return fmt.Errorf("simmatrix: writing PPM header: %w", err)
	}
	scale := 0.0
	if m.max > 0 {
		scale = 255 / m.max
	}
	for y := 0; y < m.n; y++ {
		for x := 0; x < m.n; x++ {
			var px [3]byte
			if abs(x-y) < diagBand {
				c := clusterPalette[assign[min(x, y)]%len(clusterPalette)]
				px = c
			} else {
				v := byte(m.At(x, y) * scale)
				px = [3]byte{v, v, v}
			}
			if _, err := bw.Write(px[:]); err != nil {
				return fmt.Errorf("simmatrix: writing PPM data: %w", err)
			}
		}
	}
	return bw.Flush()
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
