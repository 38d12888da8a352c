// Package raster implements the geometry processing and quad-granularity
// rasterization shared by the functional simulator (internal/funcsim) and
// the cycle-level timing simulator (internal/tbr). Keeping one
// implementation guarantees the two simulators agree on primitive
// visibility and fragment counts; they differ only in what they do with
// each work item.
//
// Rasterization proceeds in 2x2 pixel quads, the granularity real GPUs
// shade at (derivatives for mip selection come from quad neighbours) and
// the granularity at which the simulators charge costs.
package raster

import (
	"math"

	"repro/internal/geom"
	"repro/internal/gltrace"
)

// ScreenTriangle is a post-geometry, screen-space primitive ready for
// rasterization.
type ScreenTriangle struct {
	Tri geom.Triangle2
	// UV are the per-vertex texture coordinates.
	UV [3]geom.Vec2
}

// GeomStats counts what happened to a draw's primitives during geometry
// processing.
type GeomStats struct {
	// VerticesIn is the number of vertices fetched and shaded.
	VerticesIn int
	// PrimsIn is the number of primitives assembled.
	PrimsIn int
	// Rejected counts primitives discarded by trivial frustum
	// rejection or behind-the-camera vertices.
	Rejected int
	// Degenerate counts zero-area primitives dropped by the culler.
	Degenerate int
	// Visible is the number of primitives passed to the Tiling Engine.
	Visible int
}

// ProcessDraw transforms a mesh instance to screen space and performs
// clipping/culling, returning the visible screen triangles and geometry
// statistics.
//
// Clipping is simplified relative to a full Sutherland-Hodgman
// implementation: primitives with any vertex at w <= 0 (behind the
// camera) and primitives entirely outside the frustum are rejected;
// partially visible primitives are kept whole and clamped per-tile
// during rasterization. This preserves exact fragment counts (coverage
// testing is per-pixel) while avoiding the vertex-introduction
// bookkeeping full clipping requires.
func ProcessDraw(mesh *gltrace.Mesh, mvp geom.Mat4, vp geom.Viewport, depthBias float64, out []ScreenTriangle) ([]ScreenTriangle, GeomStats) {
	return ProcessDrawScratch(mesh, mvp, vp, depthBias, out, nil)
}

// xformed is one transformed vertex of a draw.
type xformed struct {
	clip geom.Vec4
	scr  geom.Vec3
	ok   bool
}

// DrawScratch holds the per-draw transform buffer ProcessDrawScratch
// reuses across draws, so a caller processing many draws (the timing
// simulator's geometry pass) performs no per-draw allocation.
type DrawScratch struct {
	xf []xformed
}

// ProcessDrawScratch is ProcessDraw with an optional reusable scratch
// buffer; a nil scratch allocates per call.
func ProcessDrawScratch(mesh *gltrace.Mesh, mvp geom.Mat4, vp geom.Viewport, depthBias float64, out []ScreenTriangle, scr *DrawScratch) ([]ScreenTriangle, GeomStats) {
	stats := GeomStats{VerticesIn: len(mesh.Vertices)}

	// Transform every vertex once (vertex caching: real hardware also
	// shades each indexed vertex once per draw).
	var xf []xformed
	if scr != nil {
		if cap(scr.xf) < len(mesh.Vertices) {
			scr.xf = make([]xformed, len(mesh.Vertices))
		}
		scr.xf = scr.xf[:len(mesh.Vertices)]
		xf = scr.xf
	} else {
		xf = make([]xformed, len(mesh.Vertices))
	}
	for i := range mesh.Vertices {
		v := &mesh.Vertices[i]
		c := mvp.MulVec4(v.Pos.ToVec4(1))
		x := xformed{clip: c}
		if c.W > 1e-9 {
			ndc := c.PerspectiveDivide()
			s := vp.ToScreen(ndc)
			s.Z = geom.Clamp(s.Z+depthBias, 0, 1)
			x.scr = s
			x.ok = true
		}
		xf[i] = x
	}

	for i := 0; i+2 < len(mesh.Indices); i += 3 {
		stats.PrimsIn++
		i0, i1, i2 := mesh.Indices[i], mesh.Indices[i+1], mesh.Indices[i+2]
		a, b, c := xf[i0], xf[i1], xf[i2]
		if !a.ok || !b.ok || !c.ok {
			stats.Rejected++
			continue
		}
		// Trivial frustum rejection in clip space: all three vertices
		// outside the same plane.
		if outsideSamePlane(a.clip, b.clip, c.clip) {
			stats.Rejected++
			continue
		}
		tri := geom.Triangle2{V: [3]geom.Vec3{a.scr, b.scr, c.scr}}
		// Screen-space rejection for primitives that survived the
		// conservative clip test but land outside the viewport.
		bounds := tri.Bounds()
		if bounds.Max.X < 0 || bounds.Max.Y < 0 ||
			bounds.Min.X >= float64(vp.Width) || bounds.Min.Y >= float64(vp.Height) {
			stats.Rejected++
			continue
		}
		if tri.Degenerate() {
			stats.Degenerate++
			continue
		}
		stats.Visible++
		out = append(out, ScreenTriangle{
			Tri: tri,
			UV: [3]geom.Vec2{
				{X: mesh.Vertices[i0].U, Y: mesh.Vertices[i0].V},
				{X: mesh.Vertices[i1].U, Y: mesh.Vertices[i1].V},
				{X: mesh.Vertices[i2].U, Y: mesh.Vertices[i2].V},
			},
		})
	}
	return out, stats
}

func outsideSamePlane(a, b, c geom.Vec4) bool {
	type test func(geom.Vec4) bool
	tests := [...]test{
		func(v geom.Vec4) bool { return v.X < -v.W },
		func(v geom.Vec4) bool { return v.X > v.W },
		func(v geom.Vec4) bool { return v.Y < -v.W },
		func(v geom.Vec4) bool { return v.Y > v.W },
		func(v geom.Vec4) bool { return v.Z < -v.W },
		func(v geom.Vec4) bool { return v.Z > v.W },
	}
	for _, t := range tests {
		if t(a) && t(b) && t(c) {
			return true
		}
	}
	return false
}

// Quad is one 2x2 fragment quad produced by rasterization. X, Y are the
// top-left pixel coordinates (always even relative to the quad grid).
type Quad struct {
	X, Y int
	// Mask has bit i set when sample i is covered. Sample order:
	// (0,0), (1,0), (0,1), (1,1).
	Mask uint8
	// Depth holds the interpolated depth per covered sample.
	Depth [4]float64
	// U, V are the interpolated texture coordinates at the quad center.
	U, V float64
}

// Coverage returns the number of covered fragments in the quad.
func (q *Quad) Coverage() int {
	n := 0
	for m := q.Mask; m != 0; m >>= 1 {
		n += int(m & 1)
	}
	return n
}

// sampleBias nudges sample points off exact pixel centers so that a
// sample never lies precisely on an edge shared by two triangles. This
// plays the role of a hardware top-left fill rule: adjacent triangles
// never both cover the same sample, so meshes neither double-shade nor
// crack along shared edges.
const sampleBias = 1.0 / 256

// RasterizeQuads walks the 2x2 quads of tri's bounding box intersected
// with clip (in pixels, max-exclusive), invoking fn for every quad with
// at least one covered sample. Quads are emitted row-major, the scan
// order of a hardware rasterizer.
//
// This is a callback adapter over QuadBatch.AppendQuads — the batched
// SoA rasterizer is the single implementation — kept for per-quad
// consumers: funcsim.RenderFrame and tests. The *Quad is only valid for
// the duration of the callback.
func RasterizeQuads(tri *ScreenTriangle, clip geom.AABB2, fn func(*Quad)) {
	b := batchPool.Get().(*QuadBatch)
	b.Reset()
	b.AppendQuads(tri, clip)
	var q Quad
	for i, n := 0, b.Len(); i < n; i++ {
		q = b.Quad(i)
		fn(&q)
	}
	batchPool.Put(b)
}

// DepthBuffer is a per-pixel depth buffer implementing the Early Z-Test.
// Smaller depth wins (depth 0 = near plane).
type DepthBuffer struct {
	w, h int
	z    []float32
}

// NewDepthBuffer returns a cleared w x h depth buffer.
func NewDepthBuffer(w, h int) *DepthBuffer {
	d := &DepthBuffer{w: w, h: h, z: make([]float32, w*h)}
	d.Clear()
	return d
}

// Clear resets every pixel to the far plane. The doubling copy turns
// the fill into memmove calls, which run at memory bandwidth instead of
// one store per element.
func (d *DepthBuffer) Clear() {
	z := d.z
	if len(z) == 0 {
		return
	}
	z[0] = math.MaxFloat32
	for i := 1; i < len(z); i *= 2 {
		copy(z[i:], z[:i])
	}
}

// TestAndSet performs the depth test at (x, y); when z passes (strictly
// nearer than the stored value) the buffer is updated and true is
// returned. Out-of-bounds coordinates fail the test.
func (d *DepthBuffer) TestAndSet(x, y int, z float64) bool {
	if x < 0 || y < 0 || x >= d.w || y >= d.h {
		return false
	}
	i := y*d.w + x
	if float32(z) < d.z[i] {
		d.z[i] = float32(z)
		return true
	}
	return false
}

// At returns the stored depth at (x, y), or +MaxFloat32 out of bounds.
func (d *DepthBuffer) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= d.w || y >= d.h {
		return math.MaxFloat32
	}
	return float64(d.z[y*d.w+x])
}

// TestQuad applies the depth test to every covered sample of q,
// returning the surviving coverage mask (and updating the buffer for
// survivors). This is the Early Z-Test operation at quad granularity.
func (d *DepthBuffer) TestQuad(q *Quad) uint8 {
	var surviving uint8
	for s := 0; s < 4; s++ {
		if q.Mask&(1<<s) == 0 {
			continue
		}
		x := q.X + (s & 1)
		y := q.Y + (s >> 1)
		if d.TestAndSet(x, y, q.Depth[s]) {
			surviving |= 1 << s
		}
	}
	return surviving
}

// TestQuadReadOnly depth-tests q without updating the buffer — the
// Early-Z behaviour of alpha-blended fragments, which must not occlude
// anything behind other transparent surfaces.
func (d *DepthBuffer) TestQuadReadOnly(q *Quad) uint8 {
	var surviving uint8
	for s := 0; s < 4; s++ {
		if q.Mask&(1<<s) == 0 {
			continue
		}
		x := q.X + (s & 1)
		y := q.Y + (s >> 1)
		if x < 0 || y < 0 || x >= d.w || y >= d.h {
			continue
		}
		if float32(q.Depth[s]) < d.z[y*d.w+x] {
			surviving |= 1 << s
		}
	}
	return surviving
}
