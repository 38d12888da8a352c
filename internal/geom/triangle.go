package geom

import "math"

// AABB2 is an axis-aligned 2D bounding box; Max is inclusive.
type AABB2 struct {
	Min, Max Vec2
}

// Empty reports whether the box contains no area.
func (b AABB2) Empty() bool {
	return b.Max.X < b.Min.X || b.Max.Y < b.Min.Y
}

// Intersect returns the intersection of b and o (possibly empty).
func (b AABB2) Intersect(o AABB2) AABB2 {
	return AABB2{
		Min: Vec2{max(b.Min.X, o.Min.X), max(b.Min.Y, o.Min.Y)},
		Max: Vec2{min(b.Max.X, o.Max.X), min(b.Max.Y, o.Max.Y)},
	}
}

// Triangle2 is a screen-space triangle with per-vertex depth.
type Triangle2 struct {
	V [3]Vec3 // X, Y in pixels; Z is depth in [0, 1]
}

// Bounds returns the 2D bounding box of the triangle.
func (t Triangle2) Bounds() AABB2 {
	minX := min(t.V[0].X, t.V[1].X, t.V[2].X)
	minY := min(t.V[0].Y, t.V[1].Y, t.V[2].Y)
	maxX := max(t.V[0].X, t.V[1].X, t.V[2].X)
	maxY := max(t.V[0].Y, t.V[1].Y, t.V[2].Y)
	return AABB2{Min: Vec2{minX, minY}, Max: Vec2{maxX, maxY}}
}

// signedArea returns the signed area of the triangle in pixels^2. The
// sign encodes winding: positive for counter-clockwise in a y-down
// coordinate system.
func (t Triangle2) signedArea() float64 {
	a := Vec2{t.V[1].X - t.V[0].X, t.V[1].Y - t.V[0].Y}
	b := Vec2{t.V[2].X - t.V[0].X, t.V[2].Y - t.V[0].Y}
	return a.cross(b) / 2
}

// area returns the absolute area in pixels^2.
func (t Triangle2) area() float64 {
	return math.Abs(t.signedArea())
}

// Degenerate reports whether the triangle has (near) zero area.
func (t Triangle2) Degenerate() bool {
	return t.area() < 1e-9
}

// barycentric returns the barycentric coordinates (l0, l1, l2) of point p
// with respect to the triangle, and ok=false for degenerate triangles.
func (t Triangle2) barycentric(p Vec2) (l0, l1, l2 float64, ok bool) {
	x0, y0 := t.V[0].X, t.V[0].Y
	x1, y1 := t.V[1].X, t.V[1].Y
	x2, y2 := t.V[2].X, t.V[2].Y
	den := (y1-y2)*(x0-x2) + (x2-x1)*(y0-y2)
	if math.Abs(den) < 1e-12 {
		return 0, 0, 0, false
	}
	l0 = ((y1-y2)*(p.X-x2) + (x2-x1)*(p.Y-y2)) / den
	l1 = ((y2-y0)*(p.X-x2) + (x0-x2)*(p.Y-y2)) / den
	l2 = 1 - l0 - l1
	return l0, l1, l2, true
}

// contains reports whether point p lies inside (or on the boundary of)
// the triangle.
func (t Triangle2) contains(p Vec2) bool {
	l0, l1, l2, ok := t.barycentric(p)
	if !ok {
		return false
	}
	const eps = -1e-9
	return l0 >= eps && l1 >= eps && l2 >= eps
}

// OverlappedTiles returns the inclusive tile-coordinate range
// [tx0, tx1] x [ty0, ty1] of size tileSize covered by the triangle's
// bounding box, clipped to a grid of tilesX x tilesY tiles. ok is false
// when the triangle is completely off-grid.
//
// This is the operation the Polygon List Builder performs for every
// primitive (Section II-A of the paper).
func (t Triangle2) OverlappedTiles(tileSize, tilesX, tilesY int) (tx0, ty0, tx1, ty1 int, ok bool) {
	b := t.Bounds()
	tx0 = int(math.Floor(b.Min.X / float64(tileSize)))
	ty0 = int(math.Floor(b.Min.Y / float64(tileSize)))
	tx1 = int(math.Floor(b.Max.X / float64(tileSize)))
	ty1 = int(math.Floor(b.Max.Y / float64(tileSize)))
	if tx1 < 0 || ty1 < 0 || tx0 >= tilesX || ty0 >= tilesY {
		return 0, 0, 0, 0, false
	}
	if tx0 < 0 {
		tx0 = 0
	}
	if ty0 < 0 {
		ty0 = 0
	}
	if tx1 >= tilesX {
		tx1 = tilesX - 1
	}
	if ty1 >= tilesY {
		ty1 = tilesY - 1
	}
	return tx0, ty0, tx1, ty1, true
}
