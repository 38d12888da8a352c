package tbr_test

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/gltrace"
	"repro/internal/shader"
	"repro/internal/tbr"
	"repro/internal/xmath/stats"
)

// blendTrace builds a one-frame trace with three full-screen quads at
// depths near (0.2), middle (0.5), far (0.8), drawn far-to-near, with
// configurable blend flags.
func blendTrace(t *testing.T, blendFlags [3]bool) *gltrace.Trace {
	t.Helper()
	g := shader.NewGenerator(stats.NewRNG(3))
	quad := gltrace.Mesh{
		Name: "fsq",
		Vertices: []gltrace.Vertex{
			{Pos: geom.Vec3{X: -1, Y: -1}}, {Pos: geom.Vec3{X: 1, Y: -1}},
			{Pos: geom.Vec3{X: 1, Y: 1}}, {Pos: geom.Vec3{X: -1, Y: 1}},
		},
		Indices: []int{0, 1, 2, 0, 2, 3},
	}
	tr := &gltrace.Trace{
		Name:            "blend",
		Viewport:        geom.Viewport{Width: 64, Height: 64},
		VertexShaders:   []*shader.Program{g.Vertex(shader.SimpleVertex)},
		FragmentShaders: []*shader.Program{g.Fragment(shader.SimpleFragment)},
		Meshes:          []gltrace.Mesh{quad},
		Textures:        []gltrace.Texture{{Name: "t", Width: 64, Height: 64, BytesPerTexel: 4}},
	}
	frame := gltrace.Frame{Commands: []gltrace.Command{
		{Op: gltrace.CmdClear},
		{Op: gltrace.CmdBindProgram},
		{Op: gltrace.CmdBindTexture},
	}}
	// NDC z=0 maps to depth 0.5; DepthBias shifts it. Draw far-to-near.
	for i, bias := range []float64{0.3, 0.0, -0.3} {
		frame.Commands = append(frame.Commands, gltrace.Command{
			Op: gltrace.CmdDraw, Mesh: 0, DepthBias: bias, Blend: blendFlags[i],
		})
		frame.MVPs = append(frame.MVPs, geom.IdentityMat4())
	}
	tr.Frames = []gltrace.Frame{frame}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func simulateBlend(t *testing.T, blendFlags [3]bool, deferred bool) tbr.FrameStats {
	t.Helper()
	cfg := tbr.DefaultConfig()
	cfg.TileSize = 16
	cfg.DeferredShading = deferred
	sim, err := tbr.New(cfg, blendTrace(t, blendFlags))
	if err != nil {
		t.Fatal(err)
	}
	return sim.SimulateFrame(0)
}

const screenFrags = 64 * 64

func TestOpaqueFarToNearShadesEverything(t *testing.T) {
	// All opaque, drawn far-to-near: early-Z cannot cull anything, so
	// all three layers shade (the overdraw problem).
	st := simulateBlend(t, [3]bool{false, false, false}, false)
	if st.FragmentsShaded != 3*screenFrags {
		t.Fatalf("shaded %d, want %d", st.FragmentsShaded, 3*screenFrags)
	}
}

func TestBlendedBehindOpaqueIsCulled(t *testing.T) {
	// Far layer blended, then opaque middle, then opaque near (drawn
	// far-to-near): the blended far layer shades (nothing in front yet),
	// and since blended fragments do not write depth, the middle layer
	// still shades too.
	st := simulateBlend(t, [3]bool{true, false, false}, false)
	if st.FragmentsShaded != 3*screenFrags {
		t.Fatalf("shaded %d, want %d", st.FragmentsShaded, 3*screenFrags)
	}

	// A blended far layer drawn AFTER an opaque near layer must be
	// culled entirely: opaque near first (writes depth), then opaque
	// middle (occluded), then blended far (occluded).
	cfg := tbr.DefaultConfig()
	cfg.TileSize = 16
	tr := blendTrace(t, [3]bool{true, false, false})
	// Reverse draw order: near opaque (bias -0.3) first, blended far last.
	cmds := tr.Frames[0].Commands
	cmds[3], cmds[5] = cmds[5], cmds[3]
	sim, err := tbr.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	st = sim.SimulateFrame(0)
	if st.FragmentsShaded != screenFrags {
		t.Fatalf("shaded %d, want %d (only the near opaque layer)", st.FragmentsShaded, screenFrags)
	}
	if st.FragmentsOccluded != 2*screenFrags {
		t.Fatalf("occluded %d, want %d", st.FragmentsOccluded, 2*screenFrags)
	}
}

func TestBlendedNeverOccludesOpaque(t *testing.T) {
	// Blended near layer drawn FIRST (near-to-far would normally let
	// early-Z cull the rest): because blended quads do not write depth,
	// the opaque layers behind must still shade.
	tr := blendTrace(t, [3]bool{false, false, true})
	cmds := tr.Frames[0].Commands
	cmds[3], cmds[5] = cmds[5], cmds[3] // near blended first
	cfg := tbr.DefaultConfig()
	cfg.TileSize = 16
	sim, err := tbr.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.SimulateFrame(0)
	// The blended near layer shades (nothing resolved yet) and writes
	// no depth, so the middle opaque layer still shades; the far
	// opaque layer is then occluded by the middle one. If the blended
	// layer had (wrongly) written depth, only it would have shaded.
	if st.FragmentsShaded != 2*screenFrags {
		t.Fatalf("blended quad occluded opaque geometry: %d shaded, want %d",
			st.FragmentsShaded, 2*screenFrags)
	}
	if st.FragmentsOccluded != screenFrags {
		t.Fatalf("occluded %d, want %d (far layer behind middle)", st.FragmentsOccluded, screenFrags)
	}

	// Control: an OPAQUE near layer drawn first culls the other two.
	tr2 := blendTrace(t, [3]bool{false, false, false})
	cmds2 := tr2.Frames[0].Commands
	cmds2[3], cmds2[5] = cmds2[5], cmds2[3]
	sim2, err := tbr.New(cfg, tr2)
	if err != nil {
		t.Fatal(err)
	}
	st2 := sim2.SimulateFrame(0)
	if st2.FragmentsShaded != screenFrags {
		t.Fatalf("early-Z failed to cull behind opaque: %d shaded", st2.FragmentsShaded)
	}
}

func TestDeferredTransparencyShadesVisibleOnly(t *testing.T) {
	// TBDR with all-opaque far-to-near: HSR shades exactly one layer.
	st := simulateBlend(t, [3]bool{false, false, false}, true)
	if st.FragmentsShaded != screenFrags {
		t.Fatalf("TBDR shaded %d, want %d", st.FragmentsShaded, screenFrags)
	}

	// Far layer blended, middle+near opaque: HSR resolves opaque depth
	// to the near layer; the blended far layer is behind it and culled.
	// Total shaded: near opaque layer only.
	st = simulateBlend(t, [3]bool{true, false, false}, true)
	if st.FragmentsShaded != screenFrags {
		t.Fatalf("TBDR with blended-behind shaded %d, want %d", st.FragmentsShaded, screenFrags)
	}

	// Near layer blended: HSR resolves opaque depth to the middle
	// layer; the blended near layer passes the read-only test and
	// shades on top. Total: middle opaque + near blended.
	st = simulateBlend(t, [3]bool{false, false, true}, true)
	if st.FragmentsShaded != 2*screenFrags {
		t.Fatalf("TBDR with blended-in-front shaded %d, want %d", st.FragmentsShaded, 2*screenFrags)
	}
}

func TestBlendConservation(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		st := simulateBlend(t, [3]bool{false, true, true}, deferred)
		if st.FragmentsShaded+st.FragmentsOccluded != 3*screenFrags {
			t.Fatalf("deferred=%v: %d + %d != %d", deferred,
				st.FragmentsShaded, st.FragmentsOccluded, 3*screenFrags)
		}
	}
}
