package gltrace_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/gltrace"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/xmath/stats"
)

// addTraceSeed serializes a valid trace and adds it to the fuzz corpus.
func addTraceSeed(f *testing.F, tr *gltrace.Trace) {
	f.Helper()
	if err := tr.Validate(); err != nil {
		f.Fatalf("seed trace invalid: %v", err)
	}
	addEncodedSeed(f, tr)
}

// addEncodedSeed serializes a trace without validating it, so a seed
// can start mutation from a stream Load must reject.
func addEncodedSeed(f *testing.F, tr *gltrace.Trace) {
	f.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
}

// seedShaders returns a minimal valid vertex/fragment shader pair.
func seedShaders() (*shader.Program, *shader.Program) {
	g := shader.NewGenerator(stats.NewRNG(11))
	return g.Vertex(shader.SimpleVertex), g.Fragment(shader.SimpleFragment)
}

// FuzzLoad feeds arbitrary bytes to the trace loader: it must reject
// garbage with an error, never panic, and anything it accepts must
// validate. The corpus seeds cover the structural edge cases mutation
// starts from: empty frames, degenerate geometry, a max-size command
// stream, and a frame whose transform count disagrees with its draws.
func FuzzLoad(f *testing.F) {
	f.Add([]byte("garbage"))
	f.Add([]byte{0x1f, 0x8b}) // gzip magic, truncated
	var valid bytes.Buffer
	tr := buildTestTrace(f)
	if err := tr.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())

	vs, fs := seedShaders()

	// Empty frames: command-less frames and a frame holding only a clear.
	addTraceSeed(f, &gltrace.Trace{
		Name:            "empty-frames",
		Viewport:        geom.Viewport{Width: 64, Height: 32},
		VertexShaders:   []*shader.Program{vs},
		FragmentShaders: []*shader.Program{fs},
		Frames: []gltrace.Frame{
			{Commands: nil},
			{},
			{Commands: []gltrace.Command{{Op: gltrace.CmdClear}}},
		},
	})

	// Degenerate triangles: three coincident vertices (zero area, zero
	// extent) and a collinear sliver, drawn with extreme depth bias.
	point := gltrace.Mesh{
		Name: "point",
		Vertices: []gltrace.Vertex{
			{Pos: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}},
			{Pos: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}},
			{Pos: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}},
		},
		Indices: []int{0, 1, 2},
	}
	sliver := gltrace.Mesh{
		Name: "sliver",
		Vertices: []gltrace.Vertex{
			{Pos: geom.Vec3{X: -1, Y: 0, Z: 0}, U: 0, V: 0},
			{Pos: geom.Vec3{X: 0, Y: 0, Z: 0}, U: 0.5, V: 0.5},
			{Pos: geom.Vec3{X: 1, Y: 0, Z: 0}, U: 1, V: 1},
		},
		Indices: []int{0, 1, 2, 2, 1, 0},
	}
	addTraceSeed(f, &gltrace.Trace{
		Name:            "degenerate",
		Viewport:        geom.Viewport{Width: 64, Height: 32},
		VertexShaders:   []*shader.Program{vs},
		FragmentShaders: []*shader.Program{fs},
		Meshes:          []gltrace.Mesh{point, sliver, {Name: "empty"}},
		Frames: []gltrace.Frame{{
			Commands: []gltrace.Command{
				{Op: gltrace.CmdBindProgram},
				{Op: gltrace.CmdDraw, Mesh: 0},
				{Op: gltrace.CmdDraw, Mesh: 1, DepthBias: math.MaxFloat64},
				{Op: gltrace.CmdDraw, Mesh: 2, DepthBias: -math.MaxFloat64},
			},
			MVPs: []geom.Mat4{geom.IdentityMat4(), geom.IdentityMat4(), geom.IdentityMat4()},
		}},
	})

	// Max-size command stream: one frame with hundreds of commands
	// re-binding state between draws.
	big := &gltrace.Trace{
		Name:            "maxcmds",
		Viewport:        geom.Viewport{Width: 64, Height: 32},
		VertexShaders:   []*shader.Program{vs},
		FragmentShaders: []*shader.Program{fs},
		Meshes:          []gltrace.Mesh{scene.Quad("q")},
		Textures:        []gltrace.Texture{{Name: "t", Width: 16, Height: 16, BytesPerTexel: 4}},
	}
	frame := gltrace.Frame{Commands: []gltrace.Command{{Op: gltrace.CmdClear}}}
	for i := 0; i < 512; i++ {
		frame.Commands = append(frame.Commands,
			gltrace.Command{Op: gltrace.CmdBindProgram},
			gltrace.Command{Op: gltrace.CmdBindTexture, Unit: int32(i % 8), Texture: 0},
			gltrace.Command{Op: gltrace.CmdDraw, Mesh: 0, DepthBias: float64(i) * 1e-6},
		)
		frame.MVPs = append(frame.MVPs, geom.IdentityMat4())
	}
	big.Frames = []gltrace.Frame{frame}
	addTraceSeed(f, big)

	// Mismatched transform count: a well-formed stream whose second
	// frame lost a transform, as a trace saved before draws' transforms
	// moved into Frame.MVPs decodes.
	short := buildTestTrace(f)
	short.Name = "mismatched"
	short.Frames[1].MVPs = short.Frames[1].MVPs[:1]
	addEncodedSeed(f, short)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := gltrace.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got == nil {
			t.Fatal("nil trace with nil error")
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("Load returned invalid trace: %v", err)
		}
	})
}
