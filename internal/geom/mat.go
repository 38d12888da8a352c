package geom

import "math"

// Mat4 is a 4x4 matrix in row-major order; element (row, col) is
// M[row*4+col]. Vectors are columns, so transforms compose left-to-right
// as C.Mul(B).Mul(A) applying A first.
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

// Mul returns the matrix product m * n.
func (m Mat4) Mul(n Mat4) Mat4 {
	var out Mat4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s := 0.0
			for k := 0; k < 4; k++ {
				s += m[r*4+k] * n[k*4+c]
			}
			out[r*4+c] = s
		}
	}
	return out
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
	s := f.Cross(up.Normalize()).Normalize()
	u := s.Cross(f)
	rot := Mat4{
		s.X, s.Y, s.Z, 0,
		u.X, u.Y, u.Z, 0,
		-f.X, -f.Y, -f.Z, 0,
		0, 0, 0, 1,
	}
	return rot.Mul(Translate(eye.Scale(-1)))
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
