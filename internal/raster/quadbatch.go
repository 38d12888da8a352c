package raster

import (
	"math"
	"sync"

	"repro/internal/geom"
)

// QuadBatch is a struct-of-arrays buffer of rasterized 2x2 quads. The
// timing simulator's fragment loop and the functional simulator's
// characterization iterate these flat slices instead of chasing
// per-quad structs through a callback, and the backing arrays
// are reused across triangles and tiles, so the steady-state raster hot
// path performs no allocations.
//
// Quad i occupies X[i], Y[i], Mask[i], U[i], V[i] and the four samples
// Depth[4i:4i+4] (sample order (0,0), (1,0), (0,1), (1,1), matching
// Quad.Depth).
type QuadBatch struct {
	X, Y  []int32
	Mask  []uint8
	Depth []float64 // 4 entries per quad
	U, V  []float64
}

// Len returns the number of quads in the batch.
func (b *QuadBatch) Len() int { return len(b.Mask) }

// Reset empties the batch, keeping the backing arrays for reuse.
func (b *QuadBatch) Reset() {
	b.X = b.X[:0]
	b.Y = b.Y[:0]
	b.Mask = b.Mask[:0]
	b.Depth = b.Depth[:0]
	b.U = b.U[:0]
	b.V = b.V[:0]
}

// Quad materializes quad i as an AoS Quad (callback wrappers, tests).
func (b *QuadBatch) Quad(i int) Quad {
	q := Quad{
		X:    int(b.X[i]),
		Y:    int(b.Y[i]),
		Mask: b.Mask[i],
		U:    b.U[i],
		V:    b.V[i],
	}
	copy(q.Depth[:], b.Depth[i*4:i*4+4])
	return q
}

// AppendQuads rasterizes tri's 2x2 quads intersected with clip (in
// pixels, max-exclusive), appending one entry per quad with at least one
// covered sample. Quads are emitted row-major, the scan order of a
// hardware rasterizer.
//
// This is the batched form of RasterizeQuads and is bit-identical to it:
// every floating-point result is produced by the same expression tree in
// the same order. Loop-invariant subexpressions (the edge coefficients,
// the per-row (xC-xB)*(py-yC) terms) are hoisted, which IEEE arithmetic
// guarantees is value-preserving; no operation is reassociated and no
// incremental edge stepping is used, because either would change
// coverage decisions on boundary samples.
func (b *QuadBatch) AppendQuads(tri *ScreenTriangle, clip geom.AABB2) {
	bb := tri.Tri.Bounds().Intersect(clip)
	if bb.Empty() {
		return
	}
	x0 := int(math.Floor(bb.Min.X)) &^ 1
	y0 := int(math.Floor(bb.Min.Y)) &^ 1
	x1 := int(math.Ceil(bb.Max.X))
	y1 := int(math.Ceil(bb.Max.Y))
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 <= x0 || y1 <= y0 {
		return
	}

	t := &tri.Tri
	xA, yA := t.V[0].X, t.V[0].Y
	xB, yB := t.V[1].X, t.V[1].Y
	xC, yC := t.V[2].X, t.V[2].Y
	den := (yB-yC)*(xA-xC) + (xC-xB)*(yA-yC)
	if math.Abs(den) < 1e-12 {
		return
	}
	invDen := 1 / den

	// Edge coefficients, identical subtractions to the per-sample form.
	e0x := yB - yC // l0's px coefficient
	e0y := xC - xB // l0's py coefficient
	e1x := yC - yA // l1's px coefficient
	e1y := xA - xC // l1's py coefficient
	z0, z1, z2 := t.V[0].Z, t.V[1].Z, t.V[2].Z
	u0, u1, u2 := tri.UV[0].X, tri.UV[1].X, tri.UV[2].X
	v0, v1, v2 := tri.UV[0].Y, tri.UV[1].Y, tri.UV[2].Y

	minX, minY := bb.Min.X, bb.Min.Y
	maxX, maxY := bb.Max.X, bb.Max.Y

	// Conservative reject margins: a sample center is at most
	// r = 0.5 + sampleBias away from the quad center in each axis, so a
	// barycentric coordinate can differ from its quad-center value by at
	// most (|ex| + |ey|) * r * |invDen| in real arithmetic. The factor 2
	// swamps floating-point rounding in both evaluations (relative error
	// ~1e-12 of the margin at plausible screen sizes), so a quad whose
	// center coordinate is below -margin provably fails coverage at all
	// four samples and can be skipped without evaluating them. Quads that
	// pass the test still run the full per-sample evaluation, so coverage
	// decisions are bit-identical to the unrejected path.
	absInvDen := math.Abs(invDen)
	marginR := (0.5 + sampleBias) * 2 * absInvDen
	m0 := (math.Abs(e0x) + math.Abs(e0y)) * marginR
	m1 := (math.Abs(e1x) + math.Abs(e1y)) * marginR
	m2 := m0 + m1

	// Extend the arrays to the bounding box's worst case once, then fill
	// by index: one capacity check per triangle instead of six append
	// bookkeeping sequences per emitted quad. The arrays are truncated to
	// the emitted count at the end.
	n := len(b.Mask)
	maxQ := ((y1-y0+1)/2 + 1) * ((x1-x0+1)/2 + 1)
	b.X = extend(b.X, n+maxQ)
	b.Y = extend(b.Y, n+maxQ)
	b.Mask = extend(b.Mask, n+maxQ)
	b.Depth = extend(b.Depth, (n+maxQ)*4)
	b.U = extend(b.U, n+maxQ)
	b.V = extend(b.V, n+maxQ)

	for y := y0; y < y1; y += 2 {
		// Sample rows of this quad row: py for samples 0,1 and 2,3.
		pyT := float64(y) + 0.5 + sampleBias
		pyB := float64(y+1) + 0.5 + sampleBias
		rowTIn := pyT < maxY && pyT >= minY
		rowBIn := pyB < maxY && pyB >= minY
		if !rowTIn && !rowBIn {
			continue
		}
		dyT := pyT - yC
		dyB := pyB - yC
		rowT0 := e0y * dyT // (xC-xB)*(py-yC), hoisted per row
		rowT1 := e1y * dyT
		rowB0 := e0y * dyB
		rowB1 := e1y * dyB
		// Quad-center y terms.
		cy := float64(y) + 1
		dyc := cy - yC
		cy0 := e0y * dyc
		cy1 := e1y * dyc

		for x := x0; x < x1; x += 2 {
			cx := float64(x) + 1
			dxc := cx - xC
			l0c := (e0x*dxc + cy0) * invDen
			l1c := (e1x*dxc + cy1) * invDen
			l2c := 1 - l0c - l1c
			if l0c < -m0 || l1c < -m1 || l2c < -m2 {
				continue
			}

			pxL := float64(x) + 0.5 + sampleBias
			pxR := float64(x+1) + 0.5 + sampleBias
			pxLIn := pxL < maxX && pxL >= minX
			pxRIn := pxR < maxX && pxR >= minX
			dxL := pxL - xC
			dxR := pxR - xC

			var mask uint8
			var depth [4]float64
			// Sample s: px alternates L,R; py alternates T,T,B,B.
			if pxLIn && rowTIn {
				l0 := (e0x*dxL + rowT0) * invDen
				l1 := (e1x*dxL + rowT1) * invDen
				l2 := 1 - l0 - l1
				if l0 >= 0 && l1 >= 0 && l2 >= 0 {
					mask |= 1 << 0
					depth[0] = l0*z0 + l1*z1 + l2*z2
				}
			}
			if pxRIn && rowTIn {
				l0 := (e0x*dxR + rowT0) * invDen
				l1 := (e1x*dxR + rowT1) * invDen
				l2 := 1 - l0 - l1
				if l0 >= 0 && l1 >= 0 && l2 >= 0 {
					mask |= 1 << 1
					depth[1] = l0*z0 + l1*z1 + l2*z2
				}
			}
			if pxLIn && rowBIn {
				l0 := (e0x*dxL + rowB0) * invDen
				l1 := (e1x*dxL + rowB1) * invDen
				l2 := 1 - l0 - l1
				if l0 >= 0 && l1 >= 0 && l2 >= 0 {
					mask |= 1 << 2
					depth[2] = l0*z0 + l1*z1 + l2*z2
				}
			}
			if pxRIn && rowBIn {
				l0 := (e0x*dxR + rowB0) * invDen
				l1 := (e1x*dxR + rowB1) * invDen
				l2 := 1 - l0 - l1
				if l0 >= 0 && l1 >= 0 && l2 >= 0 {
					mask |= 1 << 3
					depth[3] = l0*z0 + l1*z1 + l2*z2
				}
			}
			if mask == 0 {
				continue
			}
			b.X[n] = int32(x)
			b.Y[n] = int32(y)
			b.Mask[n] = mask
			d := n * 4
			b.Depth[d] = depth[0]
			b.Depth[d+1] = depth[1]
			b.Depth[d+2] = depth[2]
			b.Depth[d+3] = depth[3]
			b.U[n] = l0c*u0 + l1c*u1 + l2c*u2
			b.V[n] = l0c*v0 + l1c*v1 + l2c*v2
			n++
		}
	}
	b.X = b.X[:n]
	b.Y = b.Y[:n]
	b.Mask = b.Mask[:n]
	b.Depth = b.Depth[:n*4]
	b.U = b.U[:n]
	b.V = b.V[:n]
}

// extend grows s to newLen entries (contents beyond the previous length
// are unspecified), reallocating only when capacity is exhausted.
func extend[T any](s []T, newLen int) []T {
	if cap(s) >= newLen {
		return s[:newLen]
	}
	ns := make([]T, newLen, newLen+newLen/2)
	copy(ns, s)
	return ns
}

// batchPool recycles scratch batches for the callback wrapper so
// RasterizeQuads stays allocation-free in steady state.
var batchPool = sync.Pool{New: func() any { return new(QuadBatch) }}

// TestMask applies the depth test to the covered samples of the quad at
// (x, y) whose per-sample depths and coverage are given SoA-style
// (depth must have 4 entries in Quad sample order), updating the buffer
// for survivors and returning the surviving mask. This is TestQuad over
// a QuadBatch entry.
func (d *DepthBuffer) TestMask(x, y int, depth []float64, mask uint8) uint8 {
	_ = depth[3]
	var surviving uint8
	w, h := d.w, d.h
	x1, y1 := x+1, y+1
	col0 := uint(x) < uint(w) // one compare covers x < 0 and x >= w
	col1 := uint(x1) < uint(w)
	z := d.z
	if uint(y) < uint(h) {
		base := y * w
		if mask&1 != 0 && col0 {
			i := base + x
			if float32(depth[0]) < z[i] {
				z[i] = float32(depth[0])
				surviving |= 1
			}
		}
		if mask&2 != 0 && col1 {
			i := base + x1
			if float32(depth[1]) < z[i] {
				z[i] = float32(depth[1])
				surviving |= 2
			}
		}
	}
	if uint(y1) < uint(h) {
		base := y1 * w
		if mask&4 != 0 && col0 {
			i := base + x
			if float32(depth[2]) < z[i] {
				z[i] = float32(depth[2])
				surviving |= 4
			}
		}
		if mask&8 != 0 && col1 {
			i := base + x1
			if float32(depth[3]) < z[i] {
				z[i] = float32(depth[3])
				surviving |= 8
			}
		}
	}
	return surviving
}

// TestMaskReadOnly depth-tests the quad at (x, y) without updating the
// buffer — TestQuadReadOnly over a QuadBatch entry.
func (d *DepthBuffer) TestMaskReadOnly(x, y int, depth []float64, mask uint8) uint8 {
	_ = depth[3]
	var surviving uint8
	w, h := d.w, d.h
	x1, y1 := x+1, y+1
	col0 := uint(x) < uint(w)
	col1 := uint(x1) < uint(w)
	z := d.z
	if uint(y) < uint(h) {
		base := y * w
		if mask&1 != 0 && col0 && float32(depth[0]) < z[base+x] {
			surviving |= 1
		}
		if mask&2 != 0 && col1 && float32(depth[1]) < z[base+x1] {
			surviving |= 2
		}
	}
	if uint(y1) < uint(h) {
		base := y1 * w
		if mask&4 != 0 && col0 && float32(depth[2]) < z[base+x] {
			surviving |= 4
		}
		if mask&8 != 0 && col1 && float32(depth[3]) < z[base+x1] {
			surviving |= 8
		}
	}
	return surviving
}
