package raster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/gltrace"
	"repro/internal/scene"
)

// drawCase is one draw CountDraw and ProcessDraw both process.
type drawCase struct {
	mesh      gltrace.Mesh
	mvp       geom.Mat4
	vp        geom.Viewport
	depthBias float64
}

func (c *drawCase) String() string {
	return fmt.Sprintf("%s (%d triangles) in a %dx%d viewport, bias %v, mvp %v",
		c.mesh.Name, c.mesh.TriangleCount(), c.vp.Width, c.vp.Height, c.depthBias, c.mvp)
}

// randomDraw draws a mesh, a transform and a viewport. Half the draws
// are a random triangle soup under a perspective camera, with vertices
// behind it, off the viewport and repeated (degenerate triangles); the
// rest are the scene meshes under a perspective camera or, flat, under
// the orthographic one 2D games use.
func randomDraw(rng *rand.Rand) drawCase {
	c := drawCase{vp: geom.Viewport{Width: 1 + rng.IntN(96), Height: 1 + rng.IntN(96)}}
	if rng.IntN(3) == 0 {
		c.depthBias = rng.Float64()*0.2 - 0.1
	}
	aspect := float64(c.vp.Width) / float64(c.vp.Height)
	persp := geom.Perspective(0.5+rng.Float64(), aspect, 0.1, 50)
	move := geom.Translate(geom.Vec3{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1, Z: -1 - rng.Float64()*4})
	switch rng.IntN(5) {
	case 0, 1:
		m := gltrace.Mesh{Name: "soup"}
		for range 3 + rng.IntN(30) {
			m.Vertices = append(m.Vertices, gltrace.Vertex{
				Pos: geom.Vec3{X: rng.Float64()*6 - 3, Y: rng.Float64()*6 - 3, Z: rng.Float64()*8 - 4},
				U:   rng.Float64(), V: rng.Float64(),
			})
		}
		for range 1 + rng.IntN(40) {
			i := rng.IntN(len(m.Vertices))
			j, k := rng.IntN(len(m.Vertices)), rng.IntN(len(m.Vertices))
			if rng.IntN(8) == 0 {
				j = i
			}
			m.Indices = append(m.Indices, i, j, k)
		}
		c.mesh, c.mvp = m, mulMat(persp, move)
	case 2:
		c.mesh = scene.Sphere("sphere", 3+rng.IntN(8), 3+rng.IntN(12))
		c.mvp = mulMat(persp, move)
	case 3:
		c.mesh = scene.Grid("grid", 1+rng.IntN(6), 1+rng.IntN(6), func(x, z float64) float64 { return 0.3 * math.Sin(3*x+z) })
		c.mvp = mulMat(mulMat(persp, move), geom.RotateY(rng.Float64()*2*math.Pi))
	default:
		c.mesh = scene.Quad("sprite")
		ortho := geom.Orthographic(-1, 1, -1, 1, -1, 1)
		c.mvp = mulMat(mulMat(ortho, geom.Translate(geom.Vec3{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1})),
			geom.ScaleUniform(0.1+rng.Float64()))
	}
	return c
}

// mulMat returns the matrix product a * b.
func mulMat(a, b geom.Mat4) geom.Mat4 {
	var m geom.Mat4
	m.Mul(&a, &b)
	return m
}

// randomDepth returns a depth buffer near the size of vp, sometimes
// smaller or larger and of odd size, in a random prior state.
func randomDepth(rng *rand.Rand, vp geom.Viewport) *DepthBuffer {
	w, h := vp.Width, vp.Height
	if rng.IntN(3) == 0 {
		w, h = 1+rng.IntN(vp.Width+8), 1+rng.IntN(vp.Height+8)
	}
	d := NewDepthBuffer(w, h)
	if rng.IntN(2) == 0 {
		for i := range d.z {
			if rng.IntN(3) != 0 {
				d.z[i] = rng.Float32()
			}
		}
	}
	return d
}

// checkCountDraw asserts that CountDraw's count, geometry statistics
// and final depth buffer equal ProcessDraw's triangles run through
// referenceQuads over the viewport and TestMask (TestMaskReadOnly when
// blend), on the Go walk and, where there are, the triangle kernels.
func checkCountDraw(t *testing.T, seed uint64, blend bool) {
	rng := rand.New(rand.NewPCG(seed, 0xd1a3))
	c := randomDraw(rng)
	depth := randomDepth(rng, c.vp)

	tris, wantStats := ProcessDraw(&c.mesh, c.mvp, c.vp, c.depthBias, nil, new(DrawScratch))
	clip := geom.AABB2{Max: geom.Vec2{X: float64(c.vp.Width), Y: float64(c.vp.Height)}}
	ref := cloneDepth(depth)
	var want uint64
	for i := range tris {
		want += refSurvivors(ref, referenceQuads(&tris[i], clip), blend)
	}

	var scr DrawScratch
	for _, kernel := range walkPaths() {
		d := cloneDepth(depth)
		got, stats := d.countDraw(&c.mesh, &c.mvp, c.vp, c.depthBias, blend, &scr, kernel)
		if got != want || stats != wantStats {
			t.Fatalf("%v blend=%v: CountDraw (%s) = %d, %+v; ProcessDraw+reference = %d, %+v",
				&c, blend, pathName(kernel), got, stats, want, wantStats)
		}
		if x, y, ok := sameDepth(d, ref); !ok {
			t.Fatalf("%v blend=%v: CountDraw (%s) left depth %v at (%d,%d), ProcessDraw+reference %v",
				&c, blend, pathName(kernel), d.At(x, y), x, y, ref.At(x, y))
		}
	}
}

// FuzzCountDraw differentially tests the fused count-only pass against
// ProcessDraw plus the naive reference rasterizer over random draws,
// viewports and prior depth states, with blending on and off. The seed
// corpus alone, which `go test` runs, is 256 draws.
func FuzzCountDraw(f *testing.F) {
	for seed := uint64(0); seed < 256; seed++ {
		f.Add(seed, seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed uint64, blend bool) {
		checkCountDraw(t, seed, blend)
	})
}

// TestClearRestoresFreshBuffer is the dirty-rectangle property: after
// any interleaving of CountDraw (opaque and blended), TestMask,
// TestMaskReadOnly and Clear, a Clear leaves the buffer equal to a
// fresh NewDepthBuffer, and every pixel outside the rectangle the
// buffer has marked is at the far plane at every step.
func TestClearRestoresFreshBuffer(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xc1ea))
		vp := geom.Viewport{Width: 1 + rng.IntN(80), Height: 1 + rng.IntN(80)}
		w, h := vp.Width, vp.Height
		if rng.IntN(3) == 0 {
			w, h = 1+rng.IntN(vp.Width+8), 1+rng.IntN(vp.Height+8)
		}
		d := NewDepthBuffer(w, h)
		fresh := NewDepthBuffer(w, h)
		var scr DrawScratch
		var ops []string
		for range 1 + rng.IntN(12) {
			switch op := rng.IntN(6); op {
			case 0, 1, 2:
				c := randomDraw(rng)
				blend := op == 2
				d.CountDraw(&c.mesh, &c.mvp, vp, c.depthBias, blend, &scr)
				ops = append(ops, fmt.Sprintf("CountDraw(%s, blend=%v)", c.mesh.Name, blend))
			case 3, 4:
				x, y := rng.IntN(w+4)-2, rng.IntN(h+4)-2
				depth := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
				mask := uint8(rng.IntN(16))
				if op == 3 {
					d.TestMask(x, y, depth, mask)
				} else {
					d.TestMaskReadOnly(x, y, depth, mask)
				}
				ops = append(ops, fmt.Sprintf("TestMask(readOnly=%v)", op == 4))
			default:
				d.Clear()
				ops = append(ops, "Clear")
			}
			r := d.dirty
			for i, z := range d.z {
				x, y := i%w, i/w
				if (x < r.x0 || x >= r.x1 || y < r.y0 || y >= r.y1) && z != math.MaxFloat32 {
					t.Fatalf("seed %d %dx%d after %v: pixel (%d,%d) = %v outside the marked %+v",
						seed, w, h, ops, x, y, z, r)
				}
			}
		}
		d.Clear()
		if !slices.Equal(d.z, fresh.z) {
			t.Fatalf("seed %d %dx%d: Clear after %v differs from a fresh buffer", seed, w, h, ops)
		}
		if r := d.dirty; r.x0 < r.x1 && r.y0 < r.y1 {
			t.Fatalf("seed %d: Clear left %+v marked", seed, r)
		}
	}
}

// TestCountDrawCorpusReachesEveryFate checks that FuzzCountDraw's seed
// corpus exercises every primitive fate and both depth-buffer shapes
// that matter: draws whose depth writes reach the buffer and draws that
// survive nothing.
func TestCountDrawCorpusReachesEveryFate(t *testing.T) {
	var total GeomStats
	var hit, miss int
	for seed := uint64(0); seed < 256; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xd1a3))
		c := randomDraw(rng)
		d := randomDepth(rng, c.vp)
		n, st := d.CountDraw(&c.mesh, &c.mvp, c.vp, c.depthBias, false, new(DrawScratch))
		total.Visible += st.Visible
		total.Rejected += st.Rejected
		total.Degenerate += st.Degenerate
		if n > 0 {
			hit++
		} else {
			miss++
		}
	}
	t.Logf("primitives: %+v; draws with survivors %d, without %d", total, hit, miss)
	if total.Visible == 0 || total.Rejected == 0 || total.Degenerate == 0 || hit == 0 || miss == 0 {
		t.Fatal("the seed corpus misses a fate")
	}
}
