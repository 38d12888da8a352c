package simmatrix

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xmath/stats"
)

func randomVectors(rng *stats.RNG, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = rng.Norm(0, 5)
		}
	}
	return out
}

func TestDiagonalIsZero(t *testing.T) {
	m := New(randomVectors(stats.NewRNG(1), 20, 4))
	for i := 0; i < m.N(); i++ {
		if m.at(i, i) != 0 {
			t.Fatalf("At(%d,%d) = %v", i, i, m.at(i, i))
		}
	}
}

func TestSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(30)
		m := New(randomVectors(rng, n, 3))
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if m.at(x, y) != m.at(y, x) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKnownDistances(t *testing.T) {
	m := New([][]float64{{0, 0}, {3, 4}, {0, 0}})
	if m.at(0, 1) != 5 {
		t.Fatalf("At(0,1) = %v, want 5", m.at(0, 1))
	}
	if m.at(0, 2) != 0 {
		t.Fatalf("At(0,2) = %v, want 0 (identical frames)", m.at(0, 2))
	}
	if m.max != 5 {
		t.Fatalf("MaxDistance = %v", m.max)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := New([][]float64{{1}, {2}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.at(0, 2)
}

func TestWritePGMFormat(t *testing.T) {
	m := New([][]float64{{0}, {1}, {2}})
	var buf bytes.Buffer
	if err := m.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if !bytes.HasPrefix(b, []byte("P5\n3 3\n255\n")) {
		t.Fatalf("bad header: %q", b[:12])
	}
	pixels := b[len("P5\n3 3\n255\n"):]
	if len(pixels) != 9 {
		t.Fatalf("pixel count = %d, want 9", len(pixels))
	}
	// Diagonal black, extremes white.
	if pixels[0] != 0 || pixels[4] != 0 || pixels[8] != 0 {
		t.Fatal("diagonal not black")
	}
	if pixels[2] != 255 || pixels[6] != 255 {
		t.Fatalf("max-distance cell = %d, want 255", pixels[2])
	}
}

func TestWritePPMOverlaysClusters(t *testing.T) {
	m := New([][]float64{{0}, {0.1}, {5}, {5.1}})
	var buf bytes.Buffer
	assign := []int{0, 0, 1, 1}
	if err := m.WritePPM(&buf, assign, 1); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	header := []byte("P6\n4 4\n255\n")
	if !bytes.HasPrefix(b, header) {
		t.Fatalf("bad header: %q", b[:11])
	}
	px := b[len(header):]
	if len(px) != 4*4*3 {
		t.Fatalf("pixel bytes = %d", len(px))
	}
	// Diagonal (0,0) painted with cluster 0 color, (2,2) with cluster 1.
	c0 := px[0:3]
	c2 := px[(2*4+2)*3 : (2*4+2)*3+3]
	if bytes.Equal(c0, c2) {
		t.Fatal("different clusters share a diagonal color")
	}
	// Off-diagonal stays grayscale (r==g==b).
	off := px[(0*4+3)*3 : (0*4+3)*3+3]
	if off[0] != off[1] || off[1] != off[2] {
		t.Fatalf("off-diagonal pixel not gray: %v", off)
	}
}

func TestWritePPMValidatesAssignLength(t *testing.T) {
	m := New([][]float64{{0}, {1}})
	if err := m.WritePPM(&bytes.Buffer{}, []int{0}, 1); err == nil {
		t.Fatal("accepted short assignment")
	}
}

func TestUniformVectorsZeroMatrix(t *testing.T) {
	vecs := [][]float64{{2, 2}, {2, 2}, {2, 2}}
	m := New(vecs)
	if m.max != 0 {
		t.Fatal("identical vectors should give zero matrix")
	}
	var buf bytes.Buffer
	if err := m.WritePGM(&buf); err != nil {
		t.Fatal(err) // must not divide by zero
	}
}

func TestTriangleIndexCoversAllPairs(t *testing.T) {
	// Every (x, y) pair must map to a distinct slot for x <= y.
	n := 17
	vecs := randomVectors(stats.NewRNG(3), n, 2)
	m := New(vecs)
	for x := 0; x < n; x++ {
		for y := x; y < n; y++ {
			want := math.Sqrt(sq(vecs[x], vecs[y]))
			if math.Abs(m.at(x, y)-want) > 1e-12 {
				t.Fatalf("At(%d,%d) = %v, want %v", x, y, m.at(x, y), want)
			}
		}
	}
}

func sq(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
