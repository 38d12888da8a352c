package raster

import (
	"math"

	"repro/internal/geom"
)

// triSetup is the per-triangle state both quad walks read:
// QuadBatch.AppendQuads (the timing simulator and the frame renderer)
// and characterization's DepthBuffer.CountTriangle, in Go and in their
// amd64 kernels. Computing it in one place keeps the two walks'
// coverage decisions identical; their quad loops differ only in what
// they do with a covered sample. The kernels take every offset from
// go_asm.h and load each pair they use as one vector ([e0x, e1x],
// [e0y, e1y], [negM0, negM1] and the [u, v] of each vertex) from
// adjacent fields.
type triSetup struct {
	// x0, y0 (even) and x1, y1 (max-exclusive) bound the quads to scan.
	x0, y0, x1, y1 int
	// minX..maxY are the clipped bounding box the sample points must
	// lie in.
	minX, minY, maxX, maxY float64
	// xC, yC is vertex C, the origin of the edge functions.
	xC, yC float64
	// e0x, e0y and e1x, e1y are the px and py coefficients of the
	// barycentric numerators l0 and l1.
	e0x, e1x, e0y, e1y float64
	invDen             float64
	// negM0, negM1, negM2 are the negated quad-center reject margins of
	// l0, l1, l2.
	negM0, negM1, negM2 float64
	z0, z1, z2          float64 // the vertices' depths
	u0, v0, u1, v1      float64 // the vertices' texture coordinates
	u2, v2              float64
	bias                float64 // sampleBias, which the kernels read here
}

// setupTriangle fills s with tri's walk state for clip (in pixels,
// max-exclusive). It returns false, leaving s partly filled, when no
// sample can be covered: the clipped bounding box is empty or the
// triangle is degenerate.
//
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
//
// Row exit: both walks end a quad row at the first center-test reject
// that follows an accept. Exact barycentrics are affine along a row.
// Say the quad at xa passed the test and a later quad at xr failed it
// on coordinate i. If li decreases along the row, every quad past xr
// lies further below -mi than xr did. Otherwise li(xr) >= li(xa), which
// the two computed tests allow only when both lie within rounding
// error of -mi. li's slope per quad is then at most two rounding
// errors, so across the whole bounding box li stays within (width+1)
// rounding errors of -mi: about 1e-16*width^2 of the margin, far from
// the -mi/2 where the factor-2 slack above ends. Either way every later
// quad in the row is uncovered at all four samples, by the same proof
// that lets the margin skip the rejected quad itself, so ending the row
// changes no coverage decision.
func setupTriangle(tri *ScreenTriangle, clip geom.AABB2, s *triSetup) bool {
	bb := tri.Tri.Bounds().Intersect(clip)
	if bb.Empty() {
		return false
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
		return false
	}

	t := &tri.Tri
	xA, yA := t.V[0].X, t.V[0].Y
	xB, yB := t.V[1].X, t.V[1].Y
	xC, yC := t.V[2].X, t.V[2].Y
	den := (yB-yC)*(xA-xC) + (xC-xB)*(yA-yC)
	if math.Abs(den) < 1e-12 {
		return false
	}
	invDen := 1 / den

	// Edge coefficients, identical subtractions to the per-sample form.
	e0x := yB - yC // l0's px coefficient
	e0y := xC - xB // l0's py coefficient
	e1x := yC - yA // l1's px coefficient
	e1y := xA - xC // l1's py coefficient

	marginR := (0.5 + sampleBias) * 2 * math.Abs(invDen)
	m0 := (math.Abs(e0x) + math.Abs(e0y)) * marginR
	m1 := (math.Abs(e1x) + math.Abs(e1y)) * marginR
	s.x0, s.y0, s.x1, s.y1 = x0, y0, x1, y1
	s.minX, s.minY, s.maxX, s.maxY = bb.Min.X, bb.Min.Y, bb.Max.X, bb.Max.Y
	s.xC, s.yC = xC, yC
	s.e0x, s.e1x, s.e0y, s.e1y = e0x, e1x, e0y, e1y
	s.invDen = invDen
	s.negM0, s.negM1, s.negM2 = -m0, -m1, -(m0 + m1)
	s.z0, s.z1, s.z2 = t.V[0].Z, t.V[1].Z, t.V[2].Z
	s.u0, s.v0 = tri.UV[0].X, tri.UV[0].Y
	s.u1, s.v1 = tri.UV[1].X, tri.UV[1].Y
	s.u2, s.v2 = tri.UV[2].X, tri.UV[2].Y
	s.bias = sampleBias
	return true
}

// CountTriangle rasterizes tri within clip and early-Z tests every
// covered sample in place, returning the number that survive. When
// blend is false survivors write their depth (TestMask); when true the
// test is read-only (TestMaskReadOnly), the behaviour of transparent
// fragments. Samples outside the buffer fail, as in TestMask.
//
// The count and the final buffer equal AppendQuads followed by
// TestMask or TestMaskReadOnly over the batch: coverage and depth are
// the same expressions evaluated in the same order, and no two samples
// of one triangle share a pixel, so testing each as it is found
// matches testing the batch afterwards. Nothing is stored and no U/V is
// interpolated; this is the walk functional characterization runs,
// which needs only surviving-fragment counts.
func (d *DepthBuffer) CountTriangle(tri *ScreenTriangle, clip geom.AABB2, blend bool) uint64 {
	return d.countTriangle(tri, clip, blend, haveWalkKernels)
}

// countTriangle is CountTriangle with the kernel switched by kernel.
// Where the triangle kernel runs (countTri, amd64 with AVX) and every
// quad's right column lies inside the buffer, the kernel takes the run
// of rows from y0 whose bottom sample row lies inside the buffer, with
// the sample rows outside the clip masked; countRows walks the rest.
// Tests run both paths wherever the kernel runs.
func (d *DepthBuffer) countTriangle(tri *ScreenTriangle, clip geom.AABB2, blend, kernel bool) uint64 {
	var s triSetup
	if !setupTriangle(tri, clip, &s) {
		return 0
	}
	y := s.y0
	var n uint64
	if kernel && (s.x1+1)&^1 <= d.w {
		// Row y's bottom sample row is inside the buffer when y < h-1.
		if rows := (min(s.y1, d.h-1) - y + 1) / 2; rows > 0 {
			n = countTri(&s, d.z[y*d.w+s.x0:], d.w, rows, blend)
			y += 2 * rows
		}
	}
	return n + d.countRows(&s, y, blend)
}

// countRows is CountTriangle's Go walk of the quad rows from y, a row
// of s's walk, to the end of the bounding box: the reference for
// countTri and the whole walk on other architectures.
func (d *DepthBuffer) countRows(s *triSetup, y int, blend bool) uint64 {
	x0, y1, x1 := s.x0, s.y1, s.x1
	minX, minY, maxX, maxY := s.minX, s.minY, s.maxX, s.maxY
	xC, yC := s.xC, s.yC
	e0x, e0y, e1x, e1y := s.e0x, s.e0y, s.e1x, s.e1y
	invDen := s.invDen
	negM0, negM1, negM2 := s.negM0, s.negM1, s.negM2
	z0, z1, z2 := s.z0, s.z1, s.z2

	w, h, zbuf := d.w, d.h, d.z
	var n uint64
	for ; y < y1; y += 2 {
		pyT := float64(y) + 0.5 + sampleBias
		pyB := float64(y+1) + 0.5 + sampleBias
		// A sample row takes part only if it is inside the clip and the
		// buffer; outside the buffer every sample fails the depth test.
		rowTIn := pyT < maxY && pyT >= minY && uint(y) < uint(h)
		rowBIn := pyB < maxY && pyB >= minY && uint(y+1) < uint(h)
		if !rowTIn && !rowBIn {
			continue
		}
		dyT := pyT - yC
		dyB := pyB - yC
		rowT0 := e0y * dyT
		rowT1 := e1y * dyT
		rowB0 := e0y * dyB
		rowB1 := e1y * dyB
		cy := float64(y) + 1
		dyc := cy - yC
		cy0 := e0y * dyc
		cy1 := e1y * dyc
		baseT := y * w
		baseB := baseT + w

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
			pxLIn := pxL < maxX && pxL >= minX && uint(x) < uint(w)
			pxRIn := pxR < maxX && pxR >= minX && uint(x+1) < uint(w)
			dxL := pxL - xC
			dxR := pxR - xC

			if pxLIn && rowTIn {
				l0 := (e0x*dxL + rowT0) * invDen
				l1 := (e1x*dxL + rowT1) * invDen
				l2 := 1 - l0 - l1
				if l0 >= 0 && l1 >= 0 && l2 >= 0 {
					if z, i := float32(l0*z0+l1*z1+l2*z2), baseT+x; z < zbuf[i] {
						if !blend {
							zbuf[i] = z
						}
						n++
					}
				}
			}
			if pxRIn && rowTIn {
				l0 := (e0x*dxR + rowT0) * invDen
				l1 := (e1x*dxR + rowT1) * invDen
				l2 := 1 - l0 - l1
				if l0 >= 0 && l1 >= 0 && l2 >= 0 {
					if z, i := float32(l0*z0+l1*z1+l2*z2), baseT+x+1; z < zbuf[i] {
						if !blend {
							zbuf[i] = z
						}
						n++
					}
				}
			}
			if pxLIn && rowBIn {
				l0 := (e0x*dxL + rowB0) * invDen
				l1 := (e1x*dxL + rowB1) * invDen
				l2 := 1 - l0 - l1
				if l0 >= 0 && l1 >= 0 && l2 >= 0 {
					if z, i := float32(l0*z0+l1*z1+l2*z2), baseB+x; z < zbuf[i] {
						if !blend {
							zbuf[i] = z
						}
						n++
					}
				}
			}
			if pxRIn && rowBIn {
				l0 := (e0x*dxR + rowB0) * invDen
				l1 := (e1x*dxR + rowB1) * invDen
				l2 := 1 - l0 - l1
				if l0 >= 0 && l1 >= 0 && l2 >= 0 {
					if z, i := float32(l0*z0+l1*z1+l2*z2), baseB+x+1; z < zbuf[i] {
						if !blend {
							zbuf[i] = z
						}
						n++
					}
				}
			}
		}
	}
	return n
}
