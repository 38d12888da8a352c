package scene

import (
	"math"

	"repro/internal/geom"
)

// Camera produces view-projection matrices over time. Implementations
// model the camera behaviours of the synthetic games: a chase camera
// following a racer, a fixed orthographic 2D camera, a side-scrolling
// camera.
type Camera interface {
	// ViewProjection returns the combined projection * view matrix at
	// time t (seconds since sequence start).
	ViewProjection(t float64) geom.Mat4
}

// ChaseCamera follows a point moving along a track, looking ahead —
// the typical third-person racing camera.
type ChaseCamera struct {
	// Path returns the chased position at time t.
	Path func(t float64) geom.Vec3
	// Height and Back offset the eye from the chased point.
	Height, Back float64
	// FovY is the vertical field of view in radians.
	FovY float64
	// Aspect is the viewport aspect ratio.
	Aspect float64
}

// ViewProjection implements Camera.
func (c ChaseCamera) ViewProjection(t float64) geom.Mat4 {
	target := c.Path(t)
	ahead := c.Path(t + 0.1)
	dir := ahead.Sub(target).Normalize()
	if dir.Len() == 0 {
		dir = geom.Vec3{Z: -1}
	}
	eye := target.Sub(dir.Scale(c.Back)).Add(geom.Vec3{Y: c.Height})
	view := geom.LookAt(eye, target.Add(dir.Scale(2)), geom.Vec3{Y: 1})
	proj := geom.Perspective(c.FovY, c.Aspect, 0.1, 200)
	return proj.Mul(view)
}

// ortho2D is the fixed orthographic camera of 2D games: world units map
// directly to the [0, W] x [0, H] screen plane.
type ortho2D struct {
	Width, Height float64
}

// ViewProjection implements Camera.
func (c ortho2D) ViewProjection(float64) geom.Mat4 {
	return geom.Orthographic(0, c.Width, 0, c.Height, -10, 10)
}

// SideScroller is an orthographic camera translating horizontally with
// constant speed — endless runners and platformers.
type SideScroller struct {
	Width, Height float64
	// Speed is in world units per second.
	Speed float64
}

// ViewProjection implements Camera.
func (c SideScroller) ViewProjection(t float64) geom.Mat4 {
	x := c.Speed * t
	return geom.Orthographic(x, x+c.Width, 0, c.Height, -10, 10)
}

// CircuitPath returns a closed racing-circuit path: an ellipse with
// radius rx x rz traversed once every period seconds, with gentle
// elevation change.
func CircuitPath(rx, rz, period float64) func(t float64) geom.Vec3 {
	return func(t float64) geom.Vec3 {
		a := 2 * math.Pi * t / period
		return geom.Vec3{
			X: rx * math.Cos(a),
			Y: 0.5 + 0.3*math.Sin(2*a),
			Z: rz * math.Sin(a),
		}
	}
}

// Instance places a mesh in the world: a model matrix builder.
type Instance struct {
	Position geom.Vec3
	Scale    geom.Vec3
	// YawSpeed spins the instance about Y over time (radians/second).
	YawSpeed float64
	// BobAmp/BobFreq add vertical oscillation (pickups, floating UI).
	BobAmp, BobFreq float64
}

// Model returns the instance's model matrix at time t.
func (in Instance) Model(t float64) geom.Mat4 {
	s := in.Scale
	if s == (geom.Vec3{}) {
		s = geom.Vec3{X: 1, Y: 1, Z: 1}
	}
	pos := in.Position
	if in.BobAmp != 0 {
		pos.Y += in.BobAmp * math.Sin(2*math.Pi*in.BobFreq*t)
	}
	m := geom.Translate(pos)
	if in.YawSpeed != 0 {
		m = m.Mul(geom.RotateY(in.YawSpeed * t))
	}
	return m.Mul(geom.ScaleXYZ(s))
}
