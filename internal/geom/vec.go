// Package geom provides the 3D math used by the graphics pipeline:
// vectors, 4x4 matrices, transforms, triangles, bounding boxes and the
// viewport mapping from clip space to screen space.
//
// Conventions: right-handed coordinate system, column vectors, matrices
// multiply vectors on the left (M * v), clip space is OpenGL-style
// ([-w, w] per axis before perspective divide), screen origin at the
// top-left with y growing downward.
package geom

import "math"

// Vec2 is a 2-component vector.
type Vec2 struct {
	X, Y float64
}

// Vec3 is a 3-component vector.
type Vec3 struct {
	X, Y, Z float64
}

// Vec4 is a 4-component homogeneous vector.
type Vec4 struct {
	X, Y, Z, W float64
}

// Add returns a + b.
func (a Vec2) Add(b Vec2) Vec2 { return Vec2{a.X + b.X, a.Y + b.Y} }

// Sub returns a - b.
func (a Vec2) Sub(b Vec2) Vec2 { return Vec2{a.X - b.X, a.Y - b.Y} }

// Scale returns a scaled by s.
func (a Vec2) Scale(s float64) Vec2 { return Vec2{a.X * s, a.Y * s} }

// Dot returns the dot product of a and b.
func (a Vec2) Dot(b Vec2) float64 { return a.X*b.X + a.Y*b.Y }

// Cross returns the 2D cross product (z component of the 3D cross product
// of the embedded vectors). Positive when b is counter-clockwise from a.
func (a Vec2) Cross(b Vec2) float64 { return a.X*b.Y - a.Y*b.X }

// Len returns the Euclidean length of a.
func (a Vec2) Len() float64 { return math.Hypot(a.X, a.Y) }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a scaled by s.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the dot product of a and b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product a x b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Len returns the Euclidean length of a.
func (a Vec3) Len() float64 { return math.Sqrt(a.Dot(a)) }

// Normalize returns a unit vector in the direction of a, or the zero
// vector when a has zero length.
func (a Vec3) Normalize() Vec3 {
	l := a.Len()
	if l == 0 {
		return Vec3{}
	}
	return a.Scale(1 / l)
}

// ToVec4 embeds a into homogeneous coordinates with the given w.
func (a Vec3) ToVec4(w float64) Vec4 { return Vec4{a.X, a.Y, a.Z, w} }

// Add returns a + b.
func (a Vec4) Add(b Vec4) Vec4 {
	return Vec4{a.X + b.X, a.Y + b.Y, a.Z + b.Z, a.W + b.W}
}

// Sub returns a - b.
func (a Vec4) Sub(b Vec4) Vec4 {
	return Vec4{a.X - b.X, a.Y - b.Y, a.Z - b.Z, a.W - b.W}
}

// Scale returns a scaled by s.
func (a Vec4) Scale(s float64) Vec4 {
	return Vec4{a.X * s, a.Y * s, a.Z * s, a.W * s}
}

// Dot returns the 4-component dot product of a and b.
func (a Vec4) Dot(b Vec4) float64 {
	return a.X*b.X + a.Y*b.Y + a.Z*b.Z + a.W*b.W
}

// PerspectiveDivide returns the normalized device coordinates a/w. It
// returns the zero vector if w is 0 (degenerate vertex).
func (a Vec4) PerspectiveDivide() Vec3 {
	if a.W == 0 {
		return Vec3{}
	}
	inv := 1 / a.W
	return Vec3{a.X * inv, a.Y * inv, a.Z * inv}
}

// Clamp returns x clamped to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
