package raster

import "repro/internal/geom"

// QuadBatch is a struct-of-arrays buffer of rasterized 2x2 quads, the
// only quad representation. The timing simulator's fragment loop and
// the frame renderer iterate these flat slices, and the backing arrays
// are reused across triangles and tiles, so the steady-state raster hot
// path performs no allocations. Characterization, which needs only
// counts, uses DepthBuffer.CountTriangle instead.
//
// Quad i has top-left pixel (X[i], Y[i]) on the even quad grid and
// coverage Mask[i], where bit s is set when sample s is covered; sample
// order is (0,0), (1,0), (0,1), (1,1). Depth[4i:4i+4] holds the
// interpolated depth of each covered sample in that order, and U[i],
// V[i] the texture coordinates interpolated at the quad center.
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

// AppendQuads rasterizes tri's 2x2 quads intersected with clip (in
// pixels, max-exclusive), appending one entry per quad with at least one
// covered sample. Quads are emitted row-major, the scan order of a
// hardware rasterizer.
//
// A sample is covered when all three of its barycentrics, evaluated
// directly at the sample point, are non-negative. Loop-invariant
// subexpressions (the edge coefficients, the per-row (xC-xB)*(py-yC)
// terms) are hoisted, which IEEE arithmetic guarantees is
// value-preserving; no operation is reassociated and no incremental
// edge stepping is used, because either would change coverage
// decisions on boundary samples. The quad-center reject and the row
// exit (setupTriangle) skip only quads with no covered sample, so the
// output equals an exhaustive per-sample walk of the bounding box.
// CountTriangle shares the setup and the per-sample expressions.
func (b *QuadBatch) AppendQuads(tri *ScreenTriangle, clip geom.AABB2) {
	b.appendQuads(tri, clip, haveWalkKernels)
}

// appendQuads is AppendQuads with the kernel switched by kernel: the
// triangle kernel (appendTri, amd64 with AVX) walks every row in one
// call, and appendRows, its Go reference, walks them everywhere else.
// Tests run both wherever the kernel runs.
func (b *QuadBatch) appendQuads(tri *ScreenTriangle, clip geom.AABB2, kernel bool) {
	var s triSetup
	if !setupTriangle(tri, clip, &s) {
		return
	}

	// Extend the arrays to the bounding box's worst case once, then fill
	// by index: one capacity check per triangle instead of six append
	// bookkeeping sequences per emitted quad. The arrays are truncated to
	// the emitted count at the end.
	n := len(b.Mask)
	maxQ := ((s.y1-s.y0+1)/2 + 1) * ((s.x1-s.x0+1)/2 + 1)
	b.X = extend(b.X, n+maxQ)
	b.Y = extend(b.Y, n+maxQ)
	b.Mask = extend(b.Mask, n+maxQ)
	b.Depth = extend(b.Depth, (n+maxQ)*4)
	b.U = extend(b.U, n+maxQ)
	b.V = extend(b.V, n+maxQ)

	if kernel {
		n = appendTri(&s, b, n)
	} else {
		n = b.appendRows(&s, n)
	}
	b.X = b.X[:n]
	b.Y = b.Y[:n]
	b.Mask = b.Mask[:n]
	b.Depth = b.Depth[:n*4]
	b.U = b.U[:n]
	b.V = b.V[:n]
}

// appendRows is AppendQuads' Go walk of every quad row of s, storing
// from index n of the extended arrays; it returns the new quad count.
func (b *QuadBatch) appendRows(s *triSetup, n int) int {
	x0, y0, x1, y1 := s.x0, s.y0, s.x1, s.y1
	minX, minY, maxX, maxY := s.minX, s.minY, s.maxX, s.maxY
	xC, yC := s.xC, s.yC
	e0x, e0y, e1x, e1y := s.e0x, s.e0y, s.e1x, s.e1y
	invDen := s.invDen
	negM0, negM1, negM2 := s.negM0, s.negM1, s.negM2
	z0, z1, z2 := s.z0, s.z1, s.z2
	u0, u1, u2 := s.u0, s.u1, s.u2
	v0, v1, v2 := s.v0, s.v1, s.v2

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

		accepted := false
		for x := x0; x < x1; x += 2 {
			cx := float64(x) + 1
			dxc := cx - xC
			l0c := (e0x*dxc + cy0) * invDen
			l1c := (e1x*dxc + cy1) * invDen
			l2c := 1 - l0c - l1c
			if l0c < negM0 || l1c < negM1 || l2c < negM2 {
				if accepted {
					break // the rest of the row is past the edge (setupTriangle)
				}
				continue
			}
			accepted = true

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
	return n
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

// TestMask applies the Early Z-Test to the covered samples of the quad
// at (x, y), given SoA-style as a QuadBatch entry (depth has 4 entries
// in sample order). A sample passes when its depth, rounded to float32,
// is strictly nearer than the stored value; samples outside the buffer
// fail. The buffer is updated for survivors and the surviving mask is
// returned.
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

// TestMaskReadOnly is TestMask without updating the buffer: the Early-Z
// behaviour of alpha-blended fragments, which must not occlude anything
// behind other transparent surfaces.
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
