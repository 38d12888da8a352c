package scene

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestQuad(t *testing.T) {
	q := Quad("q")
	if q.TriangleCount() != 2 {
		t.Fatalf("quad triangles = %d, want 2", q.TriangleCount())
	}
	if len(q.Vertices) != 4 {
		t.Fatalf("quad vertices = %d, want 4", len(q.Vertices))
	}
}

func TestGridCounts(t *testing.T) {
	g := Grid("g", 4, 3, nil)
	if got, want := len(g.Vertices), 5*4; got != want {
		t.Fatalf("grid vertices = %d, want %d", got, want)
	}
	if got, want := g.TriangleCount(), 4*3*2; got != want {
		t.Fatalf("grid triangles = %d, want %d", got, want)
	}
	for _, idx := range g.Indices {
		if idx < 0 || idx >= len(g.Vertices) {
			t.Fatalf("index %d out of range", idx)
		}
	}
}

func TestGridHeightFunction(t *testing.T) {
	g := Grid("h", 2, 2, func(x, z float64) float64 { return x + z })
	found := false
	for _, v := range g.Vertices {
		if math.Abs(v.Pos.Y-(v.Pos.X+v.Pos.Z)) > 1e-12 {
			t.Fatalf("height mismatch at %+v", v.Pos)
		}
		if v.Pos.Y != 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("height function never applied")
	}
}

func TestBox(t *testing.T) {
	b := Box("b")
	if b.TriangleCount() != 12 {
		t.Fatalf("box triangles = %d, want 12", b.TriangleCount())
	}
	// All vertices on the unit cube surface.
	for _, v := range b.Vertices {
		if math.Abs(v.Pos.X) != 0.5 || math.Abs(v.Pos.Y) != 0.5 || math.Abs(v.Pos.Z) != 0.5 {
			t.Fatalf("box vertex off surface: %+v", v.Pos)
		}
	}
}

func TestSphere(t *testing.T) {
	s := Sphere("s", 6, 8)
	if got, want := s.TriangleCount(), 2*6*8; got != want {
		t.Fatalf("sphere triangles = %d, want %d", got, want)
	}
	for _, v := range s.Vertices {
		if r := v.Pos.Len(); math.Abs(r-0.5) > 1e-9 {
			t.Fatalf("sphere vertex radius = %v, want 0.5", r)
		}
	}
}

func TestRoadStrip(t *testing.T) {
	r := RoadStrip("r", 10, 0.2)
	if got, want := r.TriangleCount(), 10*2*2; got != want {
		t.Fatalf("road triangles = %d, want %d", got, want)
	}
}

func TestMeshPanicsOnBadArgs(t *testing.T) {
	for name, fn := range map[string]func(){
		"grid":   func() { Grid("g", 0, 1, nil) },
		"sphere": func() { Sphere("s", 1, 2) },
		"road":   func() { RoadStrip("r", 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestChaseCameraFollowsPath(t *testing.T) {
	cam := ChaseCamera{
		Path:   CircuitPath(10, 8, 30),
		Height: 2, Back: 4,
		FovY: math.Pi / 3, Aspect: 2,
	}
	// The chased point should always land near the screen center (in
	// front of the camera: NDC z in (-1,1), x,y small).
	for _, tm := range []float64{0, 5, 12.5, 29} {
		target := CircuitPath(10, 8, 30)(tm)
		ndc := cam.ViewProjection(tm).TransformPoint(target)
		if math.Abs(ndc.X) > 0.7 || math.Abs(ndc.Y) > 0.7 {
			t.Fatalf("t=%v: chased point NDC = %+v, want near center", tm, ndc)
		}
	}
}

func TestSideScrollerAdvances(t *testing.T) {
	cam := SideScroller{Width: 320, Height: 180, Speed: 100}
	p := geom.Vec3{X: 500, Y: 90}
	early := cam.ViewProjection(0).TransformPoint(p)
	later := cam.ViewProjection(4).TransformPoint(p)
	if later.X >= early.X {
		t.Fatalf("point should move left as camera scrolls right: %v -> %v", early.X, later.X)
	}
}

func TestCircuitPathClosed(t *testing.T) {
	p := CircuitPath(10, 8, 30)
	a, b := p(0), p(30)
	if a.Sub(b).Len() > 1e-9 {
		t.Fatalf("circuit not closed: %v vs %v", a, b)
	}
}

// modelAt returns in's model matrix at time t.
func modelAt(in *Instance, t float64) geom.Mat4 {
	var m geom.Mat4
	in.Model(&m, t)
	return m
}

func TestInstanceModel(t *testing.T) {
	in := Instance{Position: geom.Vec3{X: 5}, Scale: geom.Vec3{X: 2, Y: 2, Z: 2}}
	p := modelAt(&in, 0).TransformPoint(geom.Vec3{X: 1, Y: 0, Z: 0})
	if p != (geom.Vec3{X: 7}) {
		t.Fatalf("model transform = %+v, want (7,0,0)", p)
	}
	// Default scale is identity.
	def := Instance{Position: geom.Vec3{Y: 1}}
	q := modelAt(&def, 0).TransformPoint(geom.Vec3{X: 1})
	if q != (geom.Vec3{X: 1, Y: 1}) {
		t.Fatalf("default-scale transform = %+v", q)
	}
}

func TestInstanceBobOscillates(t *testing.T) {
	in := Instance{BobAmp: 1, BobFreq: 0.25} // period 4s, peak at t=1
	top := modelAt(&in, 1).TransformPoint(geom.Vec3{})
	mid := modelAt(&in, 0).TransformPoint(geom.Vec3{})
	if math.Abs(top.Y-1) > 1e-9 || math.Abs(mid.Y) > 1e-9 {
		t.Fatalf("bob: t=1 y=%v (want 1), t=0 y=%v (want 0)", top.Y, mid.Y)
	}
}

func TestInstanceYawPreservesRadius(t *testing.T) {
	in := Instance{YawSpeed: 1}
	p0 := modelAt(&in, 0).TransformPoint(geom.Vec3{X: 3})
	p1 := modelAt(&in, 2).TransformPoint(geom.Vec3{X: 3})
	r0 := math.Hypot(p0.X, p0.Z)
	r1 := math.Hypot(p1.X, p1.Z)
	if math.Abs(r0-r1) > 1e-9 {
		t.Fatalf("yaw changed radius: %v vs %v", r0, r1)
	}
	if p0.Sub(p1).Len() < 1e-6 {
		t.Fatal("yaw did not rotate the point")
	}
}
