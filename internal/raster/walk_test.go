package raster

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/geom"
)

// refQuad is one quad of the reference rasterizer, in the field order
// and sample order of a QuadBatch entry.
type refQuad struct {
	X, Y  int
	Mask  uint8
	Depth [4]float64
	U, V  float64
}

// batchQuad copies quad i of b into a refQuad for comparison.
func batchQuad(b *QuadBatch, i int) refQuad {
	q := refQuad{X: int(b.X[i]), Y: int(b.Y[i]), Mask: b.Mask[i], U: b.U[i], V: b.V[i]}
	copy(q.Depth[:], b.Depth[4*i:4*i+4])
	return q
}

// referenceQuads is the naive rasterizer both quad walks must match: it
// evaluates every sample of every quad on the even grid over the clipped
// bounding box, with no center reject and no row exit. Pixels left of
// or above the origin are never rasterized. Each coverage and depth
// value is the same expression, in the same order, as the per-sample
// form the walks hoist loop invariants out of, so equality is exact.
func referenceQuads(tri *ScreenTriangle, clip geom.AABB2) []refQuad {
	bb := tri.Tri.Bounds().Intersect(clip)
	if bb.Empty() {
		return nil
	}
	t := &tri.Tri
	xA, yA := t.V[0].X, t.V[0].Y
	xB, yB := t.V[1].X, t.V[1].Y
	xC, yC := t.V[2].X, t.V[2].Y
	den := (yB-yC)*(xA-xC) + (xC-xB)*(yA-yC)
	if math.Abs(den) < 1e-12 {
		return nil
	}
	invDen := 1 / den
	bary := func(px, py float64) (l0, l1, l2 float64) {
		l0 = ((yB-yC)*(px-xC) + (xC-xB)*(py-yC)) * invDen
		l1 = ((yC-yA)*(px-xC) + (xA-xC)*(py-yC)) * invDen
		return l0, l1, 1 - l0 - l1
	}
	var out []refQuad
	for y := max(0, int(math.Floor(bb.Min.Y))&^1); y < int(math.Ceil(bb.Max.Y)); y += 2 {
		for x := max(0, int(math.Floor(bb.Min.X))&^1); x < int(math.Ceil(bb.Max.X)); x += 2 {
			q := refQuad{X: x, Y: y}
			for s := 0; s < 4; s++ {
				px := float64(x+(s&1)) + 0.5 + sampleBias
				py := float64(y+(s>>1)) + 0.5 + sampleBias
				if px < bb.Min.X || px >= bb.Max.X || py < bb.Min.Y || py >= bb.Max.Y {
					continue
				}
				l0, l1, l2 := bary(px, py)
				if l0 >= 0 && l1 >= 0 && l2 >= 0 {
					q.Mask |= 1 << s
					q.Depth[s] = l0*t.V[0].Z + l1*t.V[1].Z + l2*t.V[2].Z
				}
			}
			if q.Mask == 0 {
				continue
			}
			l0, l1, l2 := bary(float64(x)+1, float64(y)+1)
			q.U = l0*tri.UV[0].X + l1*tri.UV[1].X + l2*tri.UV[2].X
			q.V = l0*tri.UV[0].Y + l1*tri.UV[1].Y + l2*tri.UV[2].Y
			out = append(out, q)
		}
	}
	return out
}

// walkClasses names the triangle shapes randomWalkCase draws.
//
// "wide-row" spans a 320-px buffer, more than 64 quads per row.
// "buffer-edge" gives the buffer an odd width and height and crosses
// its right or bottom edge, so CountDraw's rows whose bottom sample
// row leaves the buffer, and whole triangles whose last quad's right
// column does, take the Go walk beside kernel rows. "tile" clips to one
// 32-px tile of a 320x160 viewport, the timing simulator's traffic:
// triangles cross the tile's borders, and half the clips end at an odd
// y, so one sample row of the first or last quad row is outside.
var walkClasses = []string{"generic", "subpixel", "thin", "axis-parallel", "huge", "off-clip", "near-degenerate", "grid", "wide-row", "buffer-edge", "tile"}

// randomWalkCase draws a triangle of the given class, a clip rect and a
// depth buffer with a random prior state. The buffer may be smaller
// than the clip, so some covered samples fall outside it.
func randomWalkCase(rng *rand.Rand, class int) (ScreenTriangle, geom.AABB2, *DepthBuffer) {
	cw, ch := 1+rng.Float64()*96, 1+rng.Float64()*96
	cx, cy := rng.Float64()*32, rng.Float64()*32
	if rng.IntN(4) == 0 { // snap the clip to whole pixels, as tiles are
		cx, cy, cw, ch = math.Floor(cx), math.Floor(cy), math.Ceil(cw), math.Ceil(ch)
	}
	in := func() (float64, float64) { // a point near the clip
		return cx - 8 + rng.Float64()*(cw+16), cy - 8 + rng.Float64()*(ch+16)
	}

	var v [3][2]float64
	w, h := 0, 0 // buffer size; drawn below unless the class sets it
	switch walkClasses[class] {
	case "generic":
		for i := range v {
			v[i][0], v[i][1] = in()
		}
	case "subpixel":
		x, y := in()
		for i := range v {
			v[i] = [2]float64{x + rng.Float64(), y + rng.Float64()}
		}
	case "thin":
		ax, ay := in()
		bx, by := in()
		f, off := rng.Float64(), math.Pow(10, -3*rng.Float64())
		nx, ny := by-ay, ax-bx
		l := math.Hypot(nx, ny) + 1e-9
		v = [3][2]float64{{ax, ay}, {bx, by}, {ax + f*(bx-ax) + off*nx/l, ay + f*(by-ay) + off*ny/l}}
	case "axis-parallel":
		ax, ay := in()
		bx, by := in()
		if rng.IntN(2) == 0 { // edges on sample rows and columns
			ax, ay = math.Floor(ax)+0.5+sampleBias, math.Floor(ay)+0.5+sampleBias
			bx, by = math.Floor(bx)+0.5+sampleBias, math.Floor(by)+0.5+sampleBias
		}
		v = [3][2]float64{{ax, ay}, {bx, ay}, {ax, by}}
	case "huge":
		for i := range v {
			r, th := 1e3+rng.Float64()*1e6, rng.Float64()*2*math.Pi
			v[i] = [2]float64{cx + r*math.Cos(th), cy + r*math.Sin(th)}
		}
	case "off-clip":
		for i := range v {
			x, y := in()
			switch rng.IntN(4) {
			case 0:
				x = cx - rng.Float64()*64
			case 1:
				x = cx + cw + rng.Float64()*64
			case 2:
				y = cy - rng.Float64()*64
			default:
				y = cy + ch + rng.Float64()*64
			}
			v[i] = [2]float64{x, y}
		}
	case "near-degenerate":
		ax, ay := in()
		bx, by := in()
		f := rng.Float64()
		area := math.Pow(10, -12+6*rng.Float64()) // den = 2*area, around the 1e-12 cut
		l := math.Hypot(bx-ax, by-ay) + 1e-9
		h := 2 * area / l
		v = [3][2]float64{{ax, ay}, {bx, by}, {ax + f*(bx-ax) + h*(ay-by)/l, ay + f*(by-ay) + h*(bx-ax)/l}}
	case "grid":
		for i := range v {
			x, y := in()
			v[i] = [2]float64{math.Round(x*2) / 2, math.Round(y*2) / 2}
		}
	case "wide-row":
		// The clip is the whole buffer width or a sub-pixel inset of it;
		// two vertices lie past its sides and the third above or below.
		w, h = 320, 8+rng.IntN(40)
		cx, cy, cw, ch = 0, 0, float64(w), float64(h)
		if rng.IntN(2) == 0 {
			cx = rng.Float64()
			cw -= cx + rng.Float64()
		}
		y := rng.Float64() * ch
		apex := -rng.Float64() * 2 * ch
		if rng.IntN(2) == 0 {
			apex = ch + rng.Float64()*2*ch
		}
		v = [3][2]float64{{-rng.Float64() * 40, y}, {cw + rng.Float64()*40, y + rng.Float64()*8 - 4}, {rng.Float64() * cw, apex}}
	case "buffer-edge":
		// An odd-sized buffer inside a clip that overhangs it. The
		// triangle crosses the buffer's right edge, or stays left of
		// its last column and crosses only the bottom edge.
		w, h = 2*(4+rng.IntN(40))+1, 2*(4+rng.IntN(40))+1
		cx, cy, cw, ch = 0, 0, float64(w)+rng.Float64()*6, float64(h)+rng.Float64()*6
		right := cw + 8
		if rng.IntN(2) == 0 {
			right = float64(w - 1)
		}
		for i := range v {
			v[i] = [2]float64{rng.Float64() * right, rng.Float64() * (ch + 8)}
		}
		v[rng.IntN(3)][1] = ch + rng.Float64()*16
	case "tile":
		w, h = 320, 160
		cx, cy, cw, ch = float64(32*rng.IntN(10)), float64(32*rng.IntN(5)), 32, 32
		switch rng.IntN(4) {
		case 0: // odd top edge
			cy++
			ch--
		case 1: // odd bottom edge
			ch--
		}
		for i := range v { // within 24 px of the tile
			v[i] = [2]float64{cx - 24 + rng.Float64()*(cw+48), cy - 24 + rng.Float64()*(ch+48)}
		}
	}
	clip := geom.AABB2{Min: geom.Vec2{X: cx, Y: cy}, Max: geom.Vec2{X: cx + cw, Y: cy + ch}}

	// A third of the triangles are flat, as every 2D layer is.
	flat := rng.IntN(3) == 0
	z := rng.Float64()
	var tri ScreenTriangle
	for i := range v {
		if !flat {
			z = rng.Float64()
		}
		tri.Tri.V[i] = geom.Vec3{X: v[i][0], Y: v[i][1], Z: z}
		tri.UV[i] = geom.Vec2{X: rng.Float64(), Y: rng.Float64()}
	}

	if w == 0 {
		w, h = 1+rng.IntN(int(cx+cw)+8), 1+rng.IntN(int(cy+ch)+8)
	}
	depth := NewDepthBuffer(w, h)
	switch rng.IntN(4) {
	case 0: // cleared
	case 1: // the same triangle already drawn: every covered sample ties
		var b QuadBatch
		b.AppendQuads(&tri, clip)
		for i := 0; i < b.Len(); i++ {
			depth.TestMask(int(b.X[i]), int(b.Y[i]), b.Depth[i*4:i*4+4], b.Mask[i])
		}
	default: // random, with some pixels at a flat triangle's own depth
		for i := range depth.z {
			switch rng.IntN(4) {
			case 0:
			case 1:
				depth.z[i] = float32(z)
			default:
				depth.z[i] = rng.Float32()
			}
		}
	}
	return tri, clip, depth
}

// cloneDepth returns a copy of d whose whole buffer is marked written.
func cloneDepth(d *DepthBuffer) *DepthBuffer {
	c := &DepthBuffer{w: d.w, h: d.h, z: slices.Clone(d.z)}
	c.markAll()
	return c
}

// refSurvivors depth-tests want, referenceQuads' output, against d with
// TestMask (TestMaskReadOnly when blend) and returns the survivors.
func refSurvivors(d *DepthBuffer, want []refQuad, blend bool) uint64 {
	var survivors uint64
	for _, q := range want {
		var s uint8
		if blend {
			s = d.TestMaskReadOnly(q.X, q.Y, q.Depth[:], q.Mask)
		} else {
			s = d.TestMask(q.X, q.Y, q.Depth[:], q.Mask)
		}
		survivors += uint64(bits.OnesCount8(s))
	}
	return survivors
}

// sameDepth reports the first pixel at which a and b hold different
// depth bits.
func sameDepth(a, b *DepthBuffer) (x, y int, ok bool) {
	for i := range a.z {
		if math.Float32bits(a.z[i]) != math.Float32bits(b.z[i]) {
			return i % a.w, i / a.w, false
		}
	}
	return 0, 0, true
}

// walkPaths lists the count walk's paths to test: the Go walk, and the
// triangle kernels where there are.
func walkPaths() []bool {
	if haveWalkKernels {
		return []bool{false, true}
	}
	return []bool{false}
}

func pathName(kernel bool) string {
	if kernel {
		return "kernel"
	}
	return "Go walk"
}

// checkQuadWalks asserts that AppendQuads equals referenceQuads quad
// for quad, and that CountDraw's per-triangle walk leaves the count and
// final depth buffer of referenceQuads followed by TestMask (or
// TestMaskReadOnly when blend). It checks the Go walks, and the
// triangle kernels where there are.
func checkQuadWalks(t *testing.T, seed uint64, class uint8, blend bool) {
	rng := rand.New(rand.NewPCG(seed, uint64(class)))
	cls := int(class) % len(walkClasses)
	tri, clip, depth := randomWalkCase(rng, cls)
	ctx := func() string {
		return fmt.Sprintf("%s triangle %v clip %v", walkClasses[cls], tri.Tri.V, clip)
	}

	want := referenceQuads(&tri, clip)
	batched := cloneDepth(depth)
	survivors := refSurvivors(batched, want, blend)

	for _, kernel := range walkPaths() {
		path := pathName(kernel)
		var b QuadBatch
		b.appendQuads(&tri, clip, kernel)
		if b.Len() != len(want) {
			t.Fatalf("%s: AppendQuads (%s) emitted %d quads, reference %d", ctx(), path, b.Len(), len(want))
		}
		for i := range want {
			if got := batchQuad(&b, i); got != want[i] {
				t.Fatalf("%s: AppendQuads (%s) quad %d = %+v, reference %+v", ctx(), path, i, got, want[i])
			}
		}

		d := cloneDepth(depth)
		var got uint64
		var s triSetup
		if setupTriangle(&tri.Tri, tri.Tri.Bounds(), clip, &s) {
			got = d.countTriangle(&s, blend, kernel)
		}
		if got != survivors {
			t.Fatalf("%s blend=%v: count walk (%s) = %d, reference+TestMask = %d", ctx(), blend, path, got, survivors)
		}
		if x, y, ok := sameDepth(d, batched); !ok {
			t.Fatalf("%s blend=%v: count walk (%s) left depth %v at (%d,%d), reference+TestMask %v",
				ctx(), blend, path, d.At(x, y), x, y, batched.At(x, y))
		}
	}
}

// TestWalkCorpusReachesBothRowKinds checks that FuzzQuadWalks' seed
// corpus sends quad rows down every path of the two walks. The kernels
// take clip-edge rows, where one sample row is outside the clip, beside
// whole rows, among them rows of more than 64 quads. CountDraw's Go
// walk takes the rows whose bottom sample row leaves the buffer and
// every row of a triangle whose last quad's right column does. The test
// replays countTriangle's dispatch whether or not this architecture has
// the kernels.
func TestWalkCorpusReachesBothRowKinds(t *testing.T) {
	var kernelRows, clipEdgeRows, wideRows, bottomRows, rightRows int
	for class := range walkClasses {
		for seed := uint64(0); seed < 64; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(class)))
			tri, clip, depth := randomWalkCase(rng, class)
			var ts triSetup
			if !setupTriangle(&tri.Tri, tri.Tri.Bounds(), clip, &ts) {
				continue
			}
			inBuffer := (ts.x1+1)&^1 <= depth.w
			for y := ts.y0; y < ts.y1; y += 2 {
				pyT := float64(y) + 0.5 + sampleBias
				pyB := float64(y+1) + 0.5 + sampleBias
				inClipT := pyT < ts.maxY && pyT >= ts.minY
				inClipB := pyB < ts.maxY && pyB >= ts.minY
				switch {
				case !inClipT && !inClipB:
				case !inBuffer:
					if y < depth.h {
						rightRows++
					}
				case y+1 >= depth.h:
					if inClipT && y < depth.h {
						bottomRows++
					}
				default:
					kernelRows++
					if inClipT != inClipB {
						clipEdgeRows++
					}
					if (ts.x1-ts.x0+1)/2 > 64 {
						wideRows++
					}
				}
			}
		}
	}
	t.Logf("kernel rows: %d, of which %d clip-edge and %d wide; Go-walk rows: %d at the buffer bottom, %d past its right edge",
		kernelRows, clipEdgeRows, wideRows, bottomRows, rightRows)
	if kernelRows == 0 || clipEdgeRows == 0 || wideRows == 0 || bottomRows == 0 || rightRows == 0 {
		t.Fatal("the seed corpus misses a kind of row")
	}
}

// FuzzQuadWalks differentially tests both quad walks against the naive
// reference rasterizer over random triangles of every class, random
// clip rects and prior depth states, with blending on and off. The
// seed corpus alone, which `go test` runs, covers every class 64 times.
func FuzzQuadWalks(f *testing.F) {
	for seed := uint64(0); seed < 64; seed++ {
		for class := range walkClasses {
			f.Add(seed, uint8(class), seed%2 == 1)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, class uint8, blend bool) {
		checkQuadWalks(t, seed, class, blend)
	})
}
