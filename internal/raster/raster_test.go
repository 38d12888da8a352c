package raster

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/geom"
	"repro/internal/gltrace"
	"repro/internal/scene"
)

var testVP = geom.Viewport{Width: 64, Height: 64}

func fullscreenClip() geom.AABB2 {
	return geom.AABB2{Max: geom.Vec2{X: 64, Y: 64}}
}

func TestProcessDrawIdentityQuad(t *testing.T) {
	// An identity-transformed unit quad maps to the middle quarter of
	// NDC and must survive with 2 visible triangles.
	q := scene.Quad("q")
	tris, st := ProcessDraw(&q, geom.IdentityMat4(), testVP, 0, nil, new(DrawScratch))
	if st.Visible != 2 || len(tris) != 2 {
		t.Fatalf("visible = %d (stats %+v)", len(tris), st)
	}
	if st.VerticesIn != 4 || st.PrimsIn != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestProcessDrawRejectsBehindCamera(t *testing.T) {
	q := scene.Quad("q")
	// Push the quad behind the camera with a perspective projection.
	proj := geom.Perspective(math.Pi/3, 1, 0.1, 100)
	mvp := mulMat(proj, geom.Translate(geom.Vec3{Z: 5})) // +Z is behind
	_, st := ProcessDraw(&q, mvp, testVP, 0, nil, new(DrawScratch))
	if st.Visible != 0 || st.Rejected != 2 {
		t.Fatalf("stats %+v, want all rejected", st)
	}
}

func TestProcessDrawRejectsOffscreen(t *testing.T) {
	q := scene.Quad("q")
	mvp := geom.Translate(geom.Vec3{X: 10}) // NDC x ~ 10: far off right
	_, st := ProcessDraw(&q, mvp, testVP, 0, nil, new(DrawScratch))
	if st.Visible != 0 {
		t.Fatalf("stats %+v, want none visible", st)
	}
}

func TestProcessDrawCullsDegenerate(t *testing.T) {
	q := scene.Quad("q")
	mvp := geom.ScaleXYZ(geom.Vec3{X: 0, Y: 1, Z: 1}) // collapse X
	_, st := ProcessDraw(&q, mvp, testVP, 0, nil, new(DrawScratch))
	if st.Degenerate != 2 {
		t.Fatalf("stats %+v, want 2 degenerate", st)
	}
}

func TestProcessDrawDepthBias(t *testing.T) {
	q := scene.Quad("q")
	tris, _ := ProcessDraw(&q, geom.IdentityMat4(), testVP, 0.25, nil, new(DrawScratch))
	for _, tr := range tris {
		for _, v := range tr.Tri.V {
			if math.Abs(v.Z-0.75) > 1e-9 { // base depth 0.5 + bias
				t.Fatalf("depth = %v, want 0.75", v.Z)
			}
		}
	}
}

// appendQuads rasterizes tri within clip into a fresh batch.
func appendQuads(tri *ScreenTriangle, clip geom.AABB2) *QuadBatch {
	var b QuadBatch
	b.AppendQuads(tri, clip)
	return &b
}

// coverage is the number of covered samples over a batch's masks.
func coverage(masks []uint8) int {
	n := 0
	for _, m := range masks {
		n += bits.OnesCount8(m)
	}
	return n
}

func TestRasterizeQuadsFullCoverage(t *testing.T) {
	// A triangle covering the whole left-lower half of a 16x16 region.
	tri := ScreenTriangle{
		Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0.5), v3(16, 0, 0.5), v3(0, 16, 0.5)}},
	}
	b := appendQuads(&tri, geom.AABB2{Max: geom.Vec2{X: 16, Y: 16}})
	// Half of 256 pixels ~ 128; allow boundary slack.
	if fragments := coverage(b.Mask); fragments < 110 || fragments > 140 {
		t.Fatalf("fragments = %d, want ~128", fragments)
	}
	if quads := b.Len(); quads == 0 || quads > 64 {
		t.Fatalf("quads = %d", quads)
	}
}

func TestRasterizeQuadsClipRestricts(t *testing.T) {
	tri := ScreenTriangle{
		Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0), v3(64, 0, 0), v3(0, 64, 0)}},
	}
	full := coverage(appendQuads(&tri, geom.AABB2{Max: geom.Vec2{X: 64, Y: 64}}).Mask)
	tile := coverage(appendQuads(&tri, geom.AABB2{Min: geom.Vec2{X: 0, Y: 0}, Max: geom.Vec2{X: 32, Y: 32}}).Mask)
	if tile >= full || tile == 0 {
		t.Fatalf("tile coverage %d vs full %d", tile, full)
	}
}

func TestRasterizeQuadsTilePartitionExact(t *testing.T) {
	// Rasterizing per 16px tile must reproduce exactly the full-screen
	// fragment count: the per-tile union partitions coverage. AppendQuads
	// appends, so one batch collects every tile's quads.
	tri := ScreenTriangle{
		Tri: geom.Triangle2{V: [3]geom.Vec3{v3(3, 5, 0), v3(61, 17, 0), v3(22, 59, 0)}},
	}
	full := coverage(appendQuads(&tri, fullscreenClip()).Mask)
	var tiles QuadBatch
	for ty := 0; ty < 4; ty++ {
		for tx := 0; tx < 4; tx++ {
			clip := geom.AABB2{
				Min: geom.Vec2{X: float64(tx * 16), Y: float64(ty * 16)},
				Max: geom.Vec2{X: float64(tx*16 + 16), Y: float64(ty*16 + 16)},
			}
			tiles.AppendQuads(&tri, clip)
		}
	}
	if tiled := coverage(tiles.Mask); full == 0 || tiled != full {
		t.Fatalf("tiled = %d, full = %d", tiled, full)
	}
}

func TestRasterizeQuadsOutsideClip(t *testing.T) {
	tri := ScreenTriangle{
		Tri: geom.Triangle2{V: [3]geom.Vec3{v3(100, 100, 0), v3(110, 100, 0), v3(100, 110, 0)}},
	}
	if n := appendQuads(&tri, fullscreenClip()).Len(); n != 0 {
		t.Fatalf("quads outside clip = %d", n)
	}
}

func TestQuadUVInterpolation(t *testing.T) {
	tri := ScreenTriangle{
		Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0), v3(32, 0, 0), v3(0, 32, 0)}},
		UV:  [3]geom.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}},
	}
	b := appendQuads(&tri, fullscreenClip())
	if b.Len() == 0 {
		t.Fatal("no quads")
	}
	for i := 0; i < b.Len(); i++ {
		wantU := (float64(b.X[i]) + 1) / 32
		wantV := (float64(b.Y[i]) + 1) / 32
		if math.Abs(b.U[i]-wantU) > 1e-9 || math.Abs(b.V[i]-wantV) > 1e-9 {
			t.Fatalf("quad (%d,%d) UV = (%v,%v), want (%v,%v)", b.X[i], b.Y[i], b.U[i], b.V[i], wantU, wantV)
		}
	}
}

// testSample depth-tests the single sample at (x, y) through TestMask,
// reporting whether it passed.
func testSample(d *DepthBuffer, x, y int, z float64) bool {
	s := (x & 1) + 2*(y&1)
	var depth [4]float64
	depth[s] = z
	return d.TestMask(x&^1, y&^1, depth[:], 1<<s) != 0
}

func TestDepthBufferBasics(t *testing.T) {
	d := NewDepthBuffer(4, 4)
	if !testSample(d, 1, 1, 0.5) {
		t.Fatal("first write should pass")
	}
	if testSample(d, 1, 1, 0.7) {
		t.Fatal("farther fragment should fail")
	}
	if testSample(d, 1, 1, 0.5) {
		t.Fatal("a tie should fail")
	}
	if !testSample(d, 1, 1, 0.3) {
		t.Fatal("nearer fragment should pass")
	}
	if d.At(1, 1) != float64(float32(0.3)) {
		t.Fatalf("stored depth = %v, want the float32 of 0.3", d.At(1, 1))
	}
	if testSample(d, -1, 0, 0.1) || testSample(d, 4, 0, 0.1) || testSample(d, 0, 4, 0.1) {
		t.Fatal("out-of-bounds should fail")
	}
	d.Clear()
	if !testSample(d, 1, 1, 0.9) {
		t.Fatal("after Clear any depth should pass")
	}
}

func TestDepthBufferTestQuad(t *testing.T) {
	d := NewDepthBuffer(4, 4)
	half := []float64{0.5, 0.5, 0.5, 0.5}
	if got := d.TestMaskReadOnly(0, 0, half, 0b1111); got != 0b1111 {
		t.Fatalf("read-only mask on a cleared buffer = %b", got)
	}
	if got := d.TestMask(0, 0, half, 0b1111); got != 0b1111 {
		t.Fatalf("first quad mask = %b, want 1111 (read-only must not have written)", got)
	}
	// Same quad again: fully occluded.
	if got := d.TestMask(0, 0, half, 0b1111); got != 0 {
		t.Fatalf("occluded quad mask = %b", got)
	}
	// Nearer on two samples only; uncovered samples are never tested.
	near := []float64{0.2, 0.2, 0.2, 0.2}
	if got := d.TestMaskReadOnly(0, 0, near, 0b0011); got != 0b0011 {
		t.Fatalf("read-only partial quad mask = %b", got)
	}
	if d.At(0, 0) != 0.5 {
		t.Fatalf("read-only test wrote depth %v", d.At(0, 0))
	}
	if got := d.TestMask(0, 0, near, 0b0011); got != 0b0011 {
		t.Fatalf("partial quad mask = %b", got)
	}
	if d.At(0, 1) != 0.5 {
		t.Fatalf("uncovered sample wrote depth %v", d.At(0, 1))
	}
	// A quad straddling the buffer's corner tests only its in-bounds
	// sample, read-only or not.
	if got := d.TestMaskReadOnly(3, 3, near, 0b1111); got != 0b0001 {
		t.Fatalf("read-only corner quad mask = %b", got)
	}
	if got := d.TestMask(3, 3, near, 0b1111); got != 0b0001 {
		t.Fatalf("corner quad mask = %b", got)
	}
}

func TestOverdrawOrderMatters(t *testing.T) {
	// Front-to-back: second (farther) surface fully occluded.
	d := NewDepthBuffer(16, 16)
	near := ScreenTriangle{Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0.2), v3(16, 0, 0.2), v3(0, 16, 0.2)}}}
	far := ScreenTriangle{Tri: geom.Triangle2{V: [3]geom.Vec3{v3(0, 0, 0.8), v3(16, 0, 0.8), v3(0, 16, 0.8)}}}
	shaded := 0
	clip := geom.AABB2{Max: geom.Vec2{X: 16, Y: 16}}
	for _, tri := range []*ScreenTriangle{&near, &far} {
		b := appendQuads(tri, clip)
		for i := 0; i < b.Len(); i++ {
			shaded += bits.OnesCount8(d.TestMask(int(b.X[i]), int(b.Y[i]), b.Depth[4*i:4*i+4], b.Mask[i]))
		}
	}
	if firstOnly := coverage(appendQuads(&near, clip).Mask); shaded != firstOnly {
		t.Fatalf("shaded %d, want %d (far surface should be fully culled)", shaded, firstOnly)
	}
}

func TestProcessDrawAppendReusesSlice(t *testing.T) {
	q := scene.Quad("q")
	buf := make([]ScreenTriangle, 0, 16)
	tris, _ := ProcessDraw(&q, geom.IdentityMat4(), testVP, 0, buf, new(DrawScratch))
	if len(tris) != 2 {
		t.Fatalf("len = %d", len(tris))
	}
	if &tris[0] != &buf[:1][0] {
		t.Fatal("output did not reuse provided backing array")
	}
}

func TestProcessDrawLargeMeshCounts(t *testing.T) {
	g := scene.Sphere("s", 6, 8)
	mvp := geom.Orthographic(-1, 1, -1, 1, -2, 2)
	tris, st := ProcessDraw(&g, mvp, testVP, 0, nil, new(DrawScratch))
	if st.PrimsIn != g.TriangleCount() {
		t.Fatalf("PrimsIn = %d, want %d", st.PrimsIn, g.TriangleCount())
	}
	if st.Visible+st.Rejected+st.Degenerate != st.PrimsIn {
		t.Fatalf("stats don't partition: %+v", st)
	}
	if len(tris) != st.Visible {
		t.Fatalf("len(tris) = %d, Visible = %d", len(tris), st.Visible)
	}
	if st.Visible == 0 {
		t.Fatal("sphere should be visible")
	}
}

func TestProcessDrawReusedScratchMatchesFresh(t *testing.T) {
	// One scratch reused across a larger and then a smaller mesh must
	// give the same triangles and stats as a fresh one.
	mvp := geom.Orthographic(-1, 1, -1, 1, -2, 2)
	var scr DrawScratch
	for _, m := range []gltrace.Mesh{scene.Sphere("s", 6, 8), scene.Quad("q")} {
		want, wantSt := ProcessDraw(&m, mvp, testVP, 0, nil, new(DrawScratch))
		got, gotSt := ProcessDraw(&m, mvp, testVP, 0, nil, &scr)
		if gotSt != wantSt || len(got) != len(want) {
			t.Fatalf("%s: stats %+v (%d tris), want %+v (%d)", m.Name, gotSt, len(got), wantSt, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: triangle %d = %+v, want %+v", m.Name, i, got[i], want[i])
			}
		}
	}
}

// v3 builds a geom.Vec3 from screen-space x, y and depth z.
func v3(x, y, z float64) geom.Vec3 {
	return geom.Vec3{X: x, Y: y, Z: z}
}
