package simmatrix

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestEmptyMatrix(t *testing.T) {
	m := New(nil)
	if m.N() != 0 || m.max != 0 {
		t.Fatalf("empty matrix: N=%d max=%v", m.N(), m.max)
	}
	var pgm bytes.Buffer
	if err := m.WritePGM(&pgm); err != nil {
		t.Fatalf("WritePGM on empty matrix: %v", err)
	}
	if !strings.HasPrefix(pgm.String(), "P5\n0 0\n255\n") {
		t.Errorf("empty PGM header = %q", pgm.String())
	}
	var ppm bytes.Buffer
	if err := m.WritePPM(&ppm, nil, 1); err != nil {
		t.Fatalf("WritePPM on empty matrix: %v", err)
	}
	if !strings.HasPrefix(ppm.String(), "P6\n0 0\n255\n") {
		t.Errorf("empty PPM header = %q", ppm.String())
	}
}

func TestSingleFrameMatrix(t *testing.T) {
	m := New([][]float64{{1, 2, 3}})
	if m.N() != 1 || m.at(0, 0) != 0 || m.max != 0 {
		t.Fatalf("single-frame matrix: N=%d At=%v max=%v", m.N(), m.at(0, 0), m.max)
	}
	var buf bytes.Buffer
	if err := m.WritePGM(&buf); err != nil {
		t.Fatalf("WritePGM: %v", err)
	}
}

// TestNewPanicsOnMismatchedDimensions: frame vectors of different
// lengths are a caller bug and must fail loudly (via the distance
// kernel), not silently truncate.
func TestNewPanicsOnMismatchedDimensions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted ragged vectors")
		}
	}()
	New([][]float64{{1, 2, 3}, {1, 2}})
}

// failWriter errors on every write, after passing through the first
// `allow` bytes, to exercise both header- and body-write failures.
type failWriter struct {
	allow int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.allow >= len(p) {
		w.allow -= len(p)
		return len(p), nil
	}
	n := w.allow
	w.allow = 0
	return n, errors.New("writer failed")
}

func TestWritePGMPropagatesWriterError(t *testing.T) {
	m := New([][]float64{{0}, {1}, {2}})
	for _, allow := range []int{0, 5} {
		if err := m.WritePGM(&failWriter{allow: allow}); err == nil {
			t.Errorf("WritePGM(allow=%d) swallowed the write error", allow)
		}
	}
}

func TestWritePPMPropagatesWriterError(t *testing.T) {
	m := New([][]float64{{0}, {1}, {2}})
	assign := []int{0, 1, 0}
	for _, allow := range []int{0, 5} {
		if err := m.WritePPM(&failWriter{allow: allow}, assign, 1); err == nil {
			t.Errorf("WritePPM(allow=%d) swallowed the write error", allow)
		}
	}
}

func TestWritePPMRejectsShortAndLongAssignments(t *testing.T) {
	m := New([][]float64{{0}, {1}, {2}})
	var buf bytes.Buffer
	for _, assign := range [][]int{nil, {0}, {0, 1}, {0, 1, 2, 3}} {
		if err := m.WritePPM(&buf, assign, 1); err == nil {
			t.Errorf("WritePPM accepted assignment of length %d for 3 frames", len(assign))
		}
	}
}
