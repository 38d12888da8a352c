package gltrace_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/geom"
	. "repro/internal/gltrace"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/xmath/stats"
)

// buildTestTrace returns a small, valid two-frame trace.
func buildTestTrace(t testing.TB) *Trace {
	t.Helper()
	g := shader.NewGenerator(stats.NewRNG(5))
	vs := g.Vertex(shader.SimpleVertex)
	fs := g.Fragment(shader.SimpleFragment)
	tr := &Trace{
		Name:            "test",
		Viewport:        geom.Viewport{Width: 128, Height: 64},
		VertexShaders:   []*shader.Program{vs},
		FragmentShaders: []*shader.Program{fs},
		Meshes:          []Mesh{scene.Quad("q"), scene.Box("b")},
		Textures:        []Texture{{Name: "t0", Width: 64, Height: 64, BytesPerTexel: 4}},
	}
	for f := 0; f < 2; f++ {
		tr.Frames = append(tr.Frames, Frame{
			Commands: []Command{
				{Op: CmdClear},
				{Op: CmdBindProgram, VS: 0, FS: 0},
				{Op: CmdBindTexture, Unit: 0, Texture: 0},
				{Op: CmdDraw, Mesh: 0},
				{Op: CmdDraw, Mesh: 1},
			},
			MVPs: []geom.Mat4{geom.IdentityMat4(), geom.Translate(geom.Vec3{X: 0.25})},
		})
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("test trace invalid: %v", err)
	}
	return tr
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	buildTestTrace(t)
}

func TestValidateRejectsBadTraces(t *testing.T) {
	mutations := map[string]func(*Trace){
		"empty name":       func(tr *Trace) { tr.Name = "" },
		"zero viewport":    func(tr *Trace) { tr.Viewport.Width = 0 },
		"bad mesh index":   func(tr *Trace) { tr.Frames[0].Commands[3].Mesh = 99 },
		"bad vs index":     func(tr *Trace) { tr.Frames[0].Commands[1].VS = 5 },
		"bad fs index":     func(tr *Trace) { tr.Frames[0].Commands[1].FS = -1 },
		"bad texture":      func(tr *Trace) { tr.Frames[0].Commands[2].Texture = 7 },
		"bad sampler unit": func(tr *Trace) { tr.Frames[0].Commands[2].Unit = 8 },
		"draw before bind": func(tr *Trace) {
			tr.Frames[0].Commands = []Command{{Op: CmdDraw, Mesh: 0}}
			tr.Frames[0].MVPs = tr.Frames[0].MVPs[:1]
		},
		"ragged indices": func(tr *Trace) { tr.Meshes[0].Indices = tr.Meshes[0].Indices[:4] },
		"oob mesh index": func(tr *Trace) { tr.Meshes[0].Indices[0] = 99 },
		"vs wrong kind": func(tr *Trace) {
			tr.VertexShaders[0] = tr.FragmentShaders[0]
		},
	}
	for name, mutate := range mutations {
		tr := buildTestTrace(t)
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted trace", name)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := buildTestTrace(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.NumFrames() != tr.NumFrames() {
		t.Fatalf("round trip lost data: %s/%d", got.Name, got.NumFrames())
	}
	if len(got.VertexShaders) != 1 || got.VertexShaders[0].StaticCost() != tr.VertexShaders[0].StaticCost() {
		t.Fatal("shader programs not preserved")
	}
	if got.TotalPrimitives() != tr.TotalPrimitives() {
		t.Fatal("primitive counts not preserved")
	}
	for fi := range tr.Frames {
		want, have := tr.Frames[fi].MVPs, got.Frames[fi].MVPs
		if len(have) != len(want) {
			t.Fatalf("frame %d: %d transforms after round trip, want %d", fi, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("frame %d draw %d: transform not preserved", fi, i)
			}
		}
	}
}

// TestLoadRejectsMismatchedTransforms saves frames carrying too few and
// too many transforms for their draws: Load must refuse both, naming
// the frame and both counts and pointing at regeneration (a trace saved
// before transforms moved into Frame.MVPs decodes with none).
func TestLoadRejectsMismatchedTransforms(t *testing.T) {
	for name, mvps := range map[string]int{"too few": 1, "too many": 3, "none": 0} {
		tr := buildTestTrace(t)
		mats := make([]geom.Mat4, mvps)
		for i := range mats {
			mats[i] = geom.IdentityMat4()
		}
		tr.Frames[1].MVPs = mats
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if err == nil {
			t.Fatalf("%s: Load accepted a frame with %d transforms for 2 draws", name, mvps)
		}
		want := fmt.Sprintf("frame 1 has %d transforms for 2 draws", mvps)
		if msg := err.Error(); !strings.Contains(msg, want) || !strings.Contains(msg, "regenerated") {
			t.Errorf("%s: error %q does not name the frame, both counts and regeneration", name, msg)
		}
	}
}

// TestCommandIsCompact pins the command layout: a transform-free
// command packs to 32 bytes, so a draw with its two binds and its
// transform costs 3*32+128 = 224 bytes of trace.
func TestCommandIsCompact(t *testing.T) {
	if got := unsafe.Sizeof(Command{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Command{}) = %d, want 32", got)
	}
}

func TestSaveLoadFile(t *testing.T) {
	tr := buildTestTrace(t)
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "test" {
		t.Fatalf("loaded name = %q", got.Name)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestTotalPrimitives(t *testing.T) {
	tr := buildTestTrace(t)
	// 2 frames x (quad 2 + box 12) = 28 triangles.
	if got := tr.TotalPrimitives(); got != 28 {
		t.Fatalf("TotalPrimitives = %d, want 28", got)
	}
}

func TestFrameDrawCount(t *testing.T) {
	tr := buildTestTrace(t)
	if got := tr.Frames[0].DrawCount(); got != 2 {
		t.Fatalf("DrawCount = %d, want 2", got)
	}
}

func TestTextureSizeBytes(t *testing.T) {
	tx := Texture{Width: 64, Height: 32, BytesPerTexel: 4}
	if got := tx.SizeBytes(); got != 64*32*4 {
		t.Fatalf("SizeBytes = %d", got)
	}
}

func TestCmdOpString(t *testing.T) {
	if CmdDraw.String() != "draw" || CmdClear.String() != "clear" {
		t.Fatal("CmdOp.String wrong")
	}
}
