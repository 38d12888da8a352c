package raster

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/scene"
)

func BenchmarkProcessDrawSphere(b *testing.B) {
	mesh := scene.Sphere("s", 6, 8)
	vp := geom.Viewport{Width: 320, Height: 160}
	mvp := geom.Perspective(1.0, 2.0, 0.1, 100).
		Mul(geom.Translate(geom.Vec3{Z: -3}))
	buf := make([]ScreenTriangle, 0, mesh.TriangleCount())
	var scr DrawScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = ProcessDraw(&mesh, mvp, vp, 0, buf, &scr)
	}
}

// bench64 is the triangle and clip the 64x64 raster benchmarks walk.
var bench64 = ScreenTriangle{
	Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0.5), v3(64, 4, 0.5), v3(8, 64, 0.5)}},
	UV:  [3]geom.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}},
}

var bench64Clip = geom.AABB2{Max: geom.Vec2{X: 64, Y: 64}}

// BenchmarkRasterizeQuads64 times AppendQuads filling a reused batch,
// the timing simulator's per-triangle raster step.
func BenchmarkRasterizeQuads64(b *testing.B) {
	tri, clip := bench64, bench64Clip
	var batch QuadBatch
	b.ResetTimer()
	quads := 0
	for i := 0; i < b.N; i++ {
		batch.Reset()
		batch.AppendQuads(&tri, clip)
		quads += batch.Len()
	}
	if quads == 0 {
		b.Fatal("no quads")
	}
}

// BenchmarkCountTriangle is the count-only walk characterization runs
// over the same triangle. After the first pass every sample ties the
// stored depth and fails, so it times coverage plus the depth compare.
func BenchmarkCountTriangle(b *testing.B) {
	tri, clip := bench64, bench64Clip
	d := NewDepthBuffer(64, 64)
	if d.CountTriangle(&tri, clip, false) == 0 {
		b.Fatal("no fragments")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countSink += d.CountTriangle(&tri, clip, false)
	}
}

// countSink keeps BenchmarkCountTriangle's calls from being optimized
// away.
var countSink uint64

func BenchmarkDepthTestQuad(b *testing.B) {
	d := NewDepthBuffer(64, 64)
	depth := []float64{0.5, 0.5, 0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TestMask(30, 30, depth, 0b1111)
	}
}
