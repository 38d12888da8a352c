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
// that need only fragment counts (characterization) use
// DepthBuffer.CountDraw, one fused pass from a draw's vertices to its
// surviving-fragment count: it shares ProcessDraw's transform and
// visibility rule and AppendQuads' coverage expressions, but builds no
// ScreenTriangle and stores no quad. The depth buffer keeps the
// rectangle its writes reached, so a Clear after a count-only frame
// resets only that.
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

// DrawScratch holds the per-draw transform buffer ProcessDraw and
// DepthBuffer.CountDraw reuse across draws, so a caller processing many
// draws (the timing simulator's geometry pass, characterization, the
// frame renderer) performs no per-draw allocation.
type DrawScratch struct {
	xf []xformed
}

// transform transforms every vertex of mesh once into scr, growing it
// only when a mesh outgrows it, and returns the draw's vertices (vertex
// caching: real hardware also shades each indexed vertex once per
// draw).
func (scr *DrawScratch) transform(mesh *gltrace.Mesh, mvp *geom.Mat4, vp geom.Viewport, depthBias float64) []xformed {
	if cap(scr.xf) < len(mesh.Vertices) {
		scr.xf = make([]xformed, len(mesh.Vertices))
	}
	xf := scr.xf[:len(mesh.Vertices)]
	m := mvp
	for i := range mesh.Vertices {
		x, p := &xf[i], &mesh.Vertices[i].Pos
		// mvp.MulVec4(p.ToVec4(1)), without copying the matrix per
		// vertex; the w term m[k+3]*1 is exactly m[k+3].
		x.clip = geom.Vec4{
			X: m[0]*p.X + m[1]*p.Y + m[2]*p.Z + m[3],
			Y: m[4]*p.X + m[5]*p.Y + m[6]*p.Z + m[7],
			Z: m[8]*p.X + m[9]*p.Y + m[10]*p.Z + m[11],
			W: m[12]*p.X + m[13]*p.Y + m[14]*p.Z + m[15],
		}
		x.ok = x.clip.W > 1e-9
		if x.ok { // scr is read only when ok
			s := vp.ToScreen(x.clip.PerspectiveDivide())
			s.Z = geom.Clamp(s.Z+depthBias, 0, 1)
			x.scr = s
		}
	}
	return xf
}

// primFate is what geometry processing does with one primitive.
type primFate uint8

const (
	primVisible    primFate = iota // passed to rasterization
	primRejected                   // behind the camera or outside the viewport
	primDegenerate                 // zero area
)

// cullPrim is the one visibility rule of ProcessDraw and CountDraw. It
// decides the fate of the primitive with transformed vertices a, b and
// c; for a visible one, tri holds its screen-space triangle and bounds
// its bounding box. Clipping is simplified relative to a full
// Sutherland-Hodgman implementation: primitives with any vertex at
// w <= 0 (behind the camera) and primitives entirely outside the
// frustum are rejected; partially visible primitives are kept whole and
// clamped during rasterization. This preserves exact fragment counts
// (coverage testing is per-pixel) while avoiding the
// vertex-introduction bookkeeping full clipping requires.
func cullPrim(a, b, c *xformed, vp geom.Viewport, tri *geom.Triangle2, bounds *geom.AABB2) primFate {
	if !a.ok || !b.ok || !c.ok {
		return primRejected
	}
	// Trivial frustum rejection in clip space: all three vertices
	// outside the same plane.
	if outsideSamePlane(&a.clip, &b.clip, &c.clip) {
		return primRejected
	}
	tri.V = [3]geom.Vec3{a.scr, b.scr, c.scr}
	// Screen-space rejection for primitives that survived the
	// conservative clip test but land outside the viewport.
	*bounds = tri.Bounds()
	if bounds.Max.X < 0 || bounds.Max.Y < 0 ||
		bounds.Min.X >= float64(vp.Width) || bounds.Min.Y >= float64(vp.Height) {
		return primRejected
	}
	if tri.Degenerate() {
		return primDegenerate
	}
	return primVisible
}

// add counts one primitive of the given fate.
func (st *GeomStats) add(f primFate) {
	st.PrimsIn++
	switch f {
	case primVisible:
		st.Visible++
	case primRejected:
		st.Rejected++
	default:
		st.Degenerate++
	}
}

// ProcessDraw transforms a mesh instance to screen space and culls it
// (cullPrim), appending the visible screen triangles to out and
// returning them with geometry statistics. scr holds the transformed
// vertices and grows only when a mesh outgrows it.
func ProcessDraw(mesh *gltrace.Mesh, mvp geom.Mat4, vp geom.Viewport, depthBias float64, out []ScreenTriangle, scr *DrawScratch) ([]ScreenTriangle, GeomStats) {
	stats := GeomStats{VerticesIn: len(mesh.Vertices)}
	xf := scr.transform(mesh, &mvp, vp, depthBias)
	var tri geom.Triangle2
	var bounds geom.AABB2
	for i := 0; i+2 < len(mesh.Indices); i += 3 {
		i0, i1, i2 := mesh.Indices[i], mesh.Indices[i+1], mesh.Indices[i+2]
		f := cullPrim(&xf[i0], &xf[i1], &xf[i2], vp, &tri, &bounds)
		stats.add(f)
		if f != primVisible {
			continue
		}
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

func outsideSamePlane(a, b, c *geom.Vec4) bool {
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
//
// The buffer keeps the rectangle its writes may have touched since the
// last Clear, so Clear resets only that. CountDraw grows it by each
// depth-writing triangle's bounding box; TestMask, whose callers test
// quads all over the frame, marks the whole buffer. Every pixel outside
// the rectangle is at the far plane.
type DepthBuffer struct {
	w, h  int
	z     []float32
	dirty rect
}

// rect is a pixel rectangle [x0, x1) x [y0, y1); it is empty when
// x1 <= x0 or y1 <= y0.
type rect struct{ x0, y0, x1, y1 int }

// NewDepthBuffer returns a cleared w x h depth buffer.
func NewDepthBuffer(w, h int) *DepthBuffer {
	d := &DepthBuffer{w: w, h: h, z: make([]float32, w*h)}
	d.markAll()
	d.Clear()
	return d
}

// markAll marks every pixel as possibly written.
func (d *DepthBuffer) markAll() { d.dirty = rect{0, 0, d.w, d.h} }

// mark adds the pixels [x0, x1) x [y0, y1), clipped to the buffer, to
// the rectangle Clear resets. x0 and y0 are not negative.
func (d *DepthBuffer) mark(x0, y0, x1, y1 int) {
	x1, y1 = min(x1, d.w), min(y1, d.h)
	if x1 <= x0 || y1 <= y0 {
		return
	}
	r := &d.dirty
	if r.x1 <= r.x0 || r.y1 <= r.y0 {
		*r = rect{x0, y0, x1, y1}
		return
	}
	r.x0, r.y0 = min(r.x0, x0), min(r.y0, y0)
	r.x1, r.y1 = max(r.x1, x1), max(r.y1, y1)
}

// Clear resets every pixel to the far plane. Only the rectangle written
// since the last Clear needs it; a second Clear costs nothing. The
// doubling copy turns the fill into memmove calls, which run at memory
// bandwidth instead of one store per element, and every further row of
// a rectangle narrower than the buffer is one copy of the first.
func (d *DepthBuffer) Clear() {
	r := d.dirty
	if r.x1 <= r.x0 || r.y1 <= r.y0 {
		return
	}
	d.dirty = rect{}
	w := d.w
	if r.x0 == 0 && r.x1 == w {
		fillFar(d.z[r.y0*w : r.y1*w])
		return
	}
	first := d.z[r.y0*w+r.x0 : r.y0*w+r.x1]
	fillFar(first)
	for y := r.y0 + 1; y < r.y1; y++ {
		copy(d.z[y*w+r.x0:y*w+r.x1], first)
	}
}

// fillFar sets every element of z to the far plane, math.MaxFloat32.
func fillFar(z []float32) {
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
