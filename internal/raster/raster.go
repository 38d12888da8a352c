// Package raster implements the geometry processing and quad-granularity
// rasterization shared by the functional simulator (internal/funcsim) and
// the cycle-level timing simulator (internal/tbr). Keeping one
// implementation guarantees the two simulators agree on primitive
// visibility and fragment counts; they differ only in what they do with
// each work item.
//
// Rasterization proceeds in 2x2 pixel quads, the granularity real GPUs
// shade at (derivatives for mip selection come from quad neighbours) and
// the granularity at which the simulators charge costs. QuadBatch is the
// one quad container: AppendQuads fills it and DepthBuffer.TestMask or
// TestMaskReadOnly applies the Early Z-Test to its entries. Consumers
// that need only fragment counts (characterization) use the count-only
// walk DepthBuffer.CountTriangle, which shares AppendQuads' coverage
// expressions.
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

// xformed is one transformed vertex of a draw.
type xformed struct {
	clip geom.Vec4
	scr  geom.Vec3
	ok   bool
}

// DrawScratch holds the per-draw transform buffer ProcessDraw reuses
// across draws, so a caller processing many draws (the timing
// simulator's geometry pass, characterization, the frame renderer)
// performs no per-draw allocation.
type DrawScratch struct {
	xf []xformed
}

// ProcessDraw transforms a mesh instance to screen space and performs
// clipping/culling, appending the visible screen triangles to out and
// returning them with geometry statistics. scr holds the transformed
// vertices and grows only when a mesh outgrows it.
//
// Clipping is simplified relative to a full Sutherland-Hodgman
// implementation: primitives with any vertex at w <= 0 (behind the
// camera) and primitives entirely outside the frustum are rejected;
// partially visible primitives are kept whole and clamped per-tile
// during rasterization. This preserves exact fragment counts (coverage
// testing is per-pixel) while avoiding the vertex-introduction
// bookkeeping full clipping requires.
func ProcessDraw(mesh *gltrace.Mesh, mvp geom.Mat4, vp geom.Viewport, depthBias float64, out []ScreenTriangle, scr *DrawScratch) ([]ScreenTriangle, GeomStats) {
	stats := GeomStats{VerticesIn: len(mesh.Vertices)}
	if cap(scr.xf) < len(mesh.Vertices) {
		scr.xf = make([]xformed, len(mesh.Vertices))
	}
	xf := scr.xf[:len(mesh.Vertices)]

	// Transform every vertex once (vertex caching: real hardware also
	// shades each indexed vertex once per draw).
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
	return a.X < -a.W && b.X < -b.W && c.X < -c.W ||
		a.X > a.W && b.X > b.W && c.X > c.W ||
		a.Y < -a.W && b.Y < -b.W && c.Y < -c.W ||
		a.Y > a.W && b.Y > b.W && c.Y > c.W ||
		a.Z < -a.W && b.Z < -b.W && c.Z < -c.W ||
		a.Z > a.W && b.Z > b.W && c.Z > c.W
}

// sampleBias nudges sample points off exact pixel centers so that a
// sample never lies precisely on an edge shared by two triangles. This
// plays the role of a hardware top-left fill rule: adjacent triangles
// never both cover the same sample, so meshes neither double-shade nor
// crack along shared edges.
const sampleBias = 1.0 / 256

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

// At returns the stored depth at (x, y), or +MaxFloat32 out of bounds.
func (d *DepthBuffer) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= d.w || y >= d.h {
		return math.MaxFloat32
	}
	return float64(d.z[y*d.w+x])
}
