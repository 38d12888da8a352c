package geom

import "math"

// Mat4 is a 4x4 matrix in row-major order; element (row, col) is
// M[row*4+col]. Vectors are columns, so the product C * B * A applies
// A first.
type Mat4 [16]float64

// IdentityMat4 returns the identity matrix.
func IdentityMat4() Mat4 {
	return Mat4{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// Mul sets m to the matrix product a * b; m may alias a or b.
//
// The product is unrolled row by row: a row of a is read before the row
// of m it yields is written, so m may alias a, and b is copied first
// when m aliases it. Each element sums from zero in k order, so its
// bits are those of the plain triple loop.
func (m *Mat4) Mul(a, b *Mat4) {
	if m == b {
		bc := *b
		b = &bc
	}
	var a0, a1, a2, a3 float64
	a0, a1, a2, a3 = a[0], a[1], a[2], a[3]
	m[0] = 0 + a0*b[0] + a1*b[4] + a2*b[8] + a3*b[12]
	m[1] = 0 + a0*b[1] + a1*b[5] + a2*b[9] + a3*b[13]
	m[2] = 0 + a0*b[2] + a1*b[6] + a2*b[10] + a3*b[14]
	m[3] = 0 + a0*b[3] + a1*b[7] + a2*b[11] + a3*b[15]
	a0, a1, a2, a3 = a[4], a[5], a[6], a[7]
	m[4] = 0 + a0*b[0] + a1*b[4] + a2*b[8] + a3*b[12]
	m[5] = 0 + a0*b[1] + a1*b[5] + a2*b[9] + a3*b[13]
	m[6] = 0 + a0*b[2] + a1*b[6] + a2*b[10] + a3*b[14]
	m[7] = 0 + a0*b[3] + a1*b[7] + a2*b[11] + a3*b[15]
	a0, a1, a2, a3 = a[8], a[9], a[10], a[11]
	m[8] = 0 + a0*b[0] + a1*b[4] + a2*b[8] + a3*b[12]
	m[9] = 0 + a0*b[1] + a1*b[5] + a2*b[9] + a3*b[13]
	m[10] = 0 + a0*b[2] + a1*b[6] + a2*b[10] + a3*b[14]
	m[11] = 0 + a0*b[3] + a1*b[7] + a2*b[11] + a3*b[15]
	a0, a1, a2, a3 = a[12], a[13], a[14], a[15]
	m[12] = 0 + a0*b[0] + a1*b[4] + a2*b[8] + a3*b[12]
	m[13] = 0 + a0*b[1] + a1*b[5] + a2*b[9] + a3*b[13]
	m[14] = 0 + a0*b[2] + a1*b[6] + a2*b[10] + a3*b[14]
	m[15] = 0 + a0*b[3] + a1*b[7] + a2*b[11] + a3*b[15]
}

// MulVec4 returns m * v.
func (m Mat4) MulVec4(v Vec4) Vec4 {
	return Vec4{
		m[0]*v.X + m[1]*v.Y + m[2]*v.Z + m[3]*v.W,
		m[4]*v.X + m[5]*v.Y + m[6]*v.Z + m[7]*v.W,
		m[8]*v.X + m[9]*v.Y + m[10]*v.Z + m[11]*v.W,
		m[12]*v.X + m[13]*v.Y + m[14]*v.Z + m[15]*v.W,
	}
}

// TransformPoint applies m to the point p (w = 1) and returns the
// transformed point after perspective divide.
func (m Mat4) TransformPoint(p Vec3) Vec3 {
	return m.MulVec4(p.ToVec4(1)).PerspectiveDivide()
}

// Translate returns a translation matrix.
func Translate(t Vec3) Mat4 {
	return Mat4{
		1, 0, 0, t.X,
		0, 1, 0, t.Y,
		0, 0, 1, t.Z,
		0, 0, 0, 1,
	}
}

// ScaleUniform returns a uniform scaling matrix.
func ScaleUniform(s float64) Mat4 {
	return ScaleXYZ(Vec3{s, s, s})
}

// ScaleXYZ returns a per-axis scaling matrix.
func ScaleXYZ(s Vec3) Mat4 {
	return Mat4{
		s.X, 0, 0, 0,
		0, s.Y, 0, 0,
		0, 0, s.Z, 0,
		0, 0, 0, 1,
	}
}

// RotateY returns a rotation about the Y axis by angle radians.
func RotateY(angle float64) Mat4 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat4{
		c, 0, s, 0,
		0, 1, 0, 0,
		-s, 0, c, 0,
		0, 0, 0, 1,
	}
}

// LookAt returns a view matrix placing the camera at eye, looking at
// center, with the given up direction.
func LookAt(eye, center, up Vec3) Mat4 {
	f := center.Sub(eye).Normalize()
	s := f.cross(up.Normalize()).Normalize()
	u := s.cross(f)
	rot := Mat4{
		s.X, s.Y, s.Z, 0,
		u.X, u.Y, u.Z, 0,
		-f.X, -f.Y, -f.Z, 0,
		0, 0, 0, 1,
	}
	tr := Translate(eye.Scale(-1))
	var view Mat4
	view.Mul(&rot, &tr)
	return view
}

// Perspective returns a perspective projection matrix with the given
// vertical field of view (radians), aspect ratio and near/far planes.
func Perspective(fovY, aspect, near, far float64) Mat4 {
	f := 1 / math.Tan(fovY/2)
	return Mat4{
		f / aspect, 0, 0, 0,
		0, f, 0, 0,
		0, 0, (far + near) / (near - far), 2 * far * near / (near - far),
		0, 0, -1, 0,
	}
}

// Orthographic returns an orthographic projection matrix mapping the given
// box to clip space.
func Orthographic(left, right, bottom, top, near, far float64) Mat4 {
	return Mat4{
		2 / (right - left), 0, 0, -(right + left) / (right - left),
		0, 2 / (top - bottom), 0, -(top + bottom) / (top - bottom),
		0, 0, -2 / (far - near), -(far + near) / (far - near),
		0, 0, 0, 1,
	}
}

// Viewport maps normalized device coordinates (x, y in [-1, 1], NDC y up)
// to screen-space pixel coordinates for a width x height screen with the
// origin at the top-left and y growing downward. The returned Z preserves
// the NDC depth remapped to [0, 1].
type Viewport struct {
	Width, Height int
}

// ToScreen maps an NDC position to screen space.
func (vp Viewport) ToScreen(ndc Vec3) Vec3 {
	return Vec3{
		X: (ndc.X + 1) * 0.5 * float64(vp.Width),
		Y: (1 - ndc.Y) * 0.5 * float64(vp.Height),
		Z: (ndc.Z + 1) * 0.5,
	}
}
