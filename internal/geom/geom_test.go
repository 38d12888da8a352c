package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xmath/stats"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func vecsAlmostEqual(a, b Vec3, eps float64) bool {
	return almostEqual(a.X, b.X, eps) && almostEqual(a.Y, b.Y, eps) && almostEqual(a.Z, b.Z, eps)
}

func TestVec3Basics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.dot(b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestVec3CrossOrthogonality(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	if got := x.cross(y); got != (Vec3{0, 0, 1}) {
		t.Fatalf("x cross y = %v, want z", got)
	}
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		a := Vec3{r.Norm(0, 5), r.Norm(0, 5), r.Norm(0, 5)}
		b := Vec3{r.Norm(0, 5), r.Norm(0, 5), r.Norm(0, 5)}
		c := a.cross(b)
		return almostEqual(c.dot(a), 0, 1e-6) && almostEqual(c.dot(b), 0, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	v := Vec3{3, 4, 0}.Normalize()
	if !almostEqual(v.Len(), 1, 1e-12) {
		t.Fatalf("normalized length = %v", v.Len())
	}
	if z := (Vec3{}).Normalize(); z != (Vec3{}) {
		t.Fatal("normalizing zero vector should return zero")
	}
}

func TestPerspectiveDivide(t *testing.T) {
	v := Vec4{2, 4, 6, 2}
	if got := v.PerspectiveDivide(); got != (Vec3{1, 2, 3}) {
		t.Fatalf("PerspectiveDivide = %v", got)
	}
	if got := (Vec4{1, 1, 1, 0}).PerspectiveDivide(); got != (Vec3{}) {
		t.Fatal("divide by w=0 should return zero vector")
	}
}

func TestMat4Identity(t *testing.T) {
	id := IdentityMat4()
	v := Vec4{1, 2, 3, 1}
	if got := id.MulVec4(v); got != v {
		t.Fatalf("I*v = %v, want %v", got, v)
	}
	m := Translate(Vec3{5, 6, 7})
	var got Mat4
	if got.Mul(&id, &m); got != m {
		t.Fatal("I*M != M")
	}
	if got.Mul(&m, &id); got != m {
		t.Fatal("M*I != M")
	}
}

// loopMul is the plain triple loop: each element sums from zero in k
// order.
func loopMul(a, b *Mat4) Mat4 {
	var out Mat4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s := 0.0
			for k := 0; k < 4; k++ {
				s += a[r*4+k] * b[k*4+c]
			}
			out[r*4+c] = s
		}
	}
	return out
}

// TestMat4MulMatchesLoop: the unrolled product gives the triple loop's
// bits (signed zeros included) on random matrices salted with zeros,
// negative zeros and extremes, also when the destination aliases
// either operand or both.
func TestMat4MulMatchesLoop(t *testing.T) {
	r := stats.NewRNG(11)
	draw := func() Mat4 {
		var m Mat4
		for i := range m {
			switch r.Intn(6) {
			case 0:
				m[i] = 0
			case 1:
				m[i] = math.Copysign(0, -1)
			case 2:
				m[i] = r.Norm(0, 1e300)
			default:
				m[i] = r.Norm(0, 10)
			}
		}
		return m
	}
	same := func(x, y Mat4) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for range 2000 {
		a, b := draw(), draw()
		want := loopMul(&a, &b)
		var got Mat4
		if got.Mul(&a, &b); !same(got, want) {
			t.Fatalf("%v * %v = %v, want %v", a, b, got, want)
		}
		got = a
		if got.Mul(&got, &b); !same(got, want) {
			t.Fatalf("destination aliasing a: %v, want %v", got, want)
		}
		got = b
		if got.Mul(&a, &got); !same(got, want) {
			t.Fatalf("destination aliasing b: %v, want %v", got, want)
		}
		got = a
		if got.Mul(&got, &got); !same(got, loopMul(&a, &a)) {
			t.Fatalf("destination aliasing both: %v, want %v", got, loopMul(&a, &a))
		}
	}
}

func TestTranslateAndScale(t *testing.T) {
	p := Vec3{1, 1, 1}
	if got := Translate(Vec3{2, 3, 4}).TransformPoint(p); got != (Vec3{3, 4, 5}) {
		t.Fatalf("translate = %v", got)
	}
	if got := ScaleUniform(2).TransformPoint(p); got != (Vec3{2, 2, 2}) {
		t.Fatalf("scale = %v", got)
	}
}

func TestRotationsPreserveLength(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		p := Vec3{r.Norm(0, 3), r.Norm(0, 3), r.Norm(0, 3)}
		angle := r.Range(-math.Pi, math.Pi)
		return almostEqual(RotateY(angle).TransformPoint(p).Len(), p.Len(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookAtMapsEyeToOrigin(t *testing.T) {
	eye := Vec3{3, 4, 5}
	view := LookAt(eye, Vec3{0, 0, 0}, Vec3{0, 1, 0})
	if got := view.TransformPoint(eye); !vecsAlmostEqual(got, Vec3{}, 1e-9) {
		t.Fatalf("view(eye) = %v, want origin", got)
	}
	// The look target must land on the negative Z axis.
	got := view.TransformPoint(Vec3{0, 0, 0})
	if !almostEqual(got.X, 0, 1e-9) || !almostEqual(got.Y, 0, 1e-9) || got.Z >= 0 {
		t.Fatalf("view(center) = %v, want on -Z axis", got)
	}
}

func TestPerspectiveDepthOrdering(t *testing.T) {
	proj := Perspective(math.Pi/3, 16.0/9.0, 0.1, 100)
	near := proj.MulVec4(Vec4{0, 0, -1, 1}).PerspectiveDivide()
	far := proj.MulVec4(Vec4{0, 0, -50, 1}).PerspectiveDivide()
	if near.Z >= far.Z {
		t.Fatalf("nearer point must have smaller NDC depth: near=%v far=%v", near.Z, far.Z)
	}
}

func TestOrthographicMapsCorners(t *testing.T) {
	proj := Orthographic(0, 100, 0, 50, -1, 1)
	bl := proj.TransformPoint(Vec3{0, 0, 0})
	tr := proj.TransformPoint(Vec3{100, 50, 0})
	if !vecsAlmostEqual(bl, Vec3{-1, -1, 0}, 1e-12) {
		t.Fatalf("bottom-left = %v, want (-1,-1,0)", bl)
	}
	if !vecsAlmostEqual(tr, Vec3{1, 1, 0}, 1e-12) {
		t.Fatalf("top-right = %v, want (1,1,0)", tr)
	}
}

func TestViewportMapping(t *testing.T) {
	vp := Viewport{Width: 1440, Height: 720}
	center := vp.ToScreen(Vec3{0, 0, 0})
	if center.X != 720 || center.Y != 360 || center.Z != 0.5 {
		t.Fatalf("center = %v", center)
	}
	topLeft := vp.ToScreen(Vec3{-1, 1, -1})
	if topLeft.X != 0 || topLeft.Y != 0 || topLeft.Z != 0 {
		t.Fatalf("topLeft = %v", topLeft)
	}
	bottomRight := vp.ToScreen(Vec3{1, -1, 1})
	if bottomRight.X != 1440 || bottomRight.Y != 720 || bottomRight.Z != 1 {
		t.Fatalf("bottomRight = %v", bottomRight)
	}
}

func TestTriangleArea(t *testing.T) {
	tri := Triangle2{V: [3]Vec3{{0, 0, 0}, {10, 0, 0}, {0, 10, 0}}}
	if got := tri.area(); got != 50 {
		t.Fatalf("Area = %v, want 50", got)
	}
	deg := Triangle2{V: [3]Vec3{{0, 0, 0}, {5, 5, 0}, {10, 10, 0}}}
	if !deg.Degenerate() {
		t.Fatal("collinear triangle should be degenerate")
	}
}

func TestOverlappedTiles(t *testing.T) {
	// 4x4 grid of 32px tiles (128x128 screen).
	tri := Triangle2{V: [3]Vec3{{10, 10, 0}, {70, 10, 0}, {10, 70, 0}}}
	tx0, ty0, tx1, ty1, ok := tri.OverlappedTiles(32, 4, 4)
	if !ok || tx0 != 0 || ty0 != 0 || tx1 != 2 || ty1 != 2 {
		t.Fatalf("tiles = (%d,%d)-(%d,%d) ok=%v, want (0,0)-(2,2)", tx0, ty0, tx1, ty1, ok)
	}
}

func TestOverlappedTilesClipping(t *testing.T) {
	// Partially off-screen triangle must clamp to the grid.
	tri := Triangle2{V: [3]Vec3{{-50, -50, 0}, {40, 10, 0}, {10, 40, 0}}}
	tx0, ty0, tx1, ty1, ok := tri.OverlappedTiles(32, 4, 4)
	if !ok || tx0 != 0 || ty0 != 0 || tx1 != 1 || ty1 != 1 {
		t.Fatalf("tiles = (%d,%d)-(%d,%d) ok=%v", tx0, ty0, tx1, ty1, ok)
	}
	// Entirely off-screen triangle yields ok=false.
	off := Triangle2{V: [3]Vec3{{-100, -100, 0}, {-50, -100, 0}, {-100, -50, 0}}}
	if _, _, _, _, ok := off.OverlappedTiles(32, 4, 4); ok {
		t.Fatal("off-screen triangle should not overlap tiles")
	}
}

func TestAABBIntersect(t *testing.T) {
	a := AABB2{Min: Vec2{0, 0}, Max: Vec2{10, 10}}
	b := AABB2{Min: Vec2{5, 5}, Max: Vec2{15, 15}}
	i := a.Intersect(b)
	if i.Min != (Vec2{5, 5}) || i.Max != (Vec2{10, 10}) {
		t.Fatalf("Intersect = %+v", i)
	}
	c := AABB2{Min: Vec2{20, 20}, Max: Vec2{30, 30}}
	if !a.Intersect(c).Empty() {
		t.Fatal("disjoint boxes should intersect empty")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Fatal("Clamp wrong")
	}
}
