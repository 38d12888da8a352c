package raster

import (
	"math/rand/v2"
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
// the timing simulator's per-triangle raster step. quads/op, like the
// counts of the other raster benchmarks, is exact on any host, so
// `make bench-check-raster` gates it for equality.
func BenchmarkRasterizeQuads64(b *testing.B) {
	tri, clip := bench64, bench64Clip
	var batch QuadBatch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		batch.AppendQuads(&tri, clip)
	}
	if batch.Len() == 0 {
		b.Fatal("no quads")
	}
	b.ReportMetric(float64(batch.Len()), "quads/op")
}

// benchTiles is the fixed (triangle, tile clip) traffic
// BenchmarkAppendQuadsTiles walks: 96 triangles of 4-64 px in a
// 320x160 viewport, each paired with every 32-px tile its bounding box
// overlaps, as the timing simulator bins them. Most calls walk 3-8
// quad rows of a few quads each, the shape of validate-full's
// AppendQuads calls.
func benchTiles() (tris []ScreenTriangle, clips []geom.AABB2) {
	rng := rand.New(rand.NewPCG(1, 2))
	for range 96 {
		size := 4 + rng.Float64()*60
		x, y := rng.Float64()*(320-size), rng.Float64()*(160-size)
		var tri ScreenTriangle
		for i := range tri.Tri.V {
			tri.Tri.V[i] = v3(x+rng.Float64()*size, y+rng.Float64()*size, rng.Float64())
			tri.UV[i] = geom.Vec2{X: rng.Float64(), Y: rng.Float64()}
		}
		bb := tri.Tri.Bounds()
		for ty := int(bb.Min.Y) / 32 * 32; float64(ty) < bb.Max.Y; ty += 32 {
			for tx := int(bb.Min.X) / 32 * 32; float64(tx) < bb.Max.X; tx += 32 {
				tris = append(tris, tri)
				clips = append(clips, geom.AABB2{
					Min: geom.Vec2{X: float64(tx), Y: float64(ty)},
					Max: geom.Vec2{X: float64(tx + 32), Y: float64(ty + 32)},
				})
			}
		}
	}
	return tris, clips
}

// BenchmarkAppendQuadsTiles times AppendQuads over benchTiles, one
// reset batch per call as the timing simulator's tile loop runs it.
func BenchmarkAppendQuadsTiles(b *testing.B) {
	tris, clips := benchTiles()
	var batch QuadBatch
	b.ResetTimer()
	quads := 0
	for i := 0; i < b.N; i++ {
		quads = 0
		for j := range tris {
			batch.Reset()
			batch.AppendQuads(&tris[j], clips[j])
			quads += batch.Len()
		}
	}
	if quads == 0 {
		b.Fatal("no quads")
	}
	b.ReportMetric(float64(quads), "quads/op")
}

// BenchmarkCountTriangle is the count-only walk characterization runs
// over the same triangle, flat, with depth writes. Each op draws it one
// unit nearer than the last (z = -i, exact in float32 below 2^24), so
// every covered sample survives and is stored on every op, and
// survivors/op is the triangle's covered sample count.
func BenchmarkCountTriangle(b *testing.B) {
	tri, clip := bench64, bench64Clip
	d := NewDepthBuffer(64, 64)
	var survivors uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := -float64(i % (1 << 23))
		if z == 0 {
			d.Clear()
		}
		for k := range tri.Tri.V {
			tri.Tri.V[k].Z = z
		}
		survivors = d.CountTriangle(&tri, clip, false)
	}
	if survivors == 0 {
		b.Fatal("no fragments")
	}
	b.ReportMetric(float64(survivors), "survivors/op")
}

func BenchmarkDepthTestQuad(b *testing.B) {
	d := NewDepthBuffer(64, 64)
	depth := []float64{0.5, 0.5, 0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TestMask(30, 30, depth, 0b1111)
	}
}
