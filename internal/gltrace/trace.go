// Package gltrace defines the OpenGL-like command trace that feeds the
// simulators, playing the role of the "OpenGL commands trace" TEAPOT
// captures from the Android emulator. A Trace is fully self-contained:
// it embeds the shader programs, meshes and texture descriptors it
// references, plus a per-frame command stream, so it can be serialized
// to disk and replayed by the functional and timing simulators.
package gltrace

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/geom"
	"repro/internal/shader"
)

// Vertex is one mesh vertex: object-space position plus texture
// coordinates.
type Vertex struct {
	Pos geom.Vec3
	U   float64
	V   float64
}

// Mesh is an indexed triangle mesh. Indices reference Vertices in groups
// of three.
type Mesh struct {
	Name     string
	Vertices []Vertex
	Indices  []int
}

// TriangleCount returns the number of primitives in the mesh.
func (m *Mesh) TriangleCount() int { return len(m.Indices) / 3 }

// BytesPerVertex is the memory footprint of one vertex as fetched by the
// Vertex Fetcher (position + UV as 32-bit floats plus padding, matching
// the 136-byte vertex queue entries of Table I at a smaller attribute
// count).
const BytesPerVertex = 32

// Texture describes a texture resource; only its footprint matters to the
// memory system, texel values are generated procedurally from the ID.
type Texture struct {
	Name          string
	Width, Height int
	// BytesPerTexel is 4 for RGBA8888 content.
	BytesPerTexel int
}

// SizeBytes returns the total texture footprint.
func (t *Texture) SizeBytes() int { return t.Width * t.Height * t.BytesPerTexel }

// CmdOp enumerates trace commands.
type CmdOp int8

const (
	// CmdClear clears the color and depth buffers.
	CmdClear CmdOp = iota
	// CmdBindProgram selects the current vertex + fragment shader pair.
	CmdBindProgram
	// CmdBindTexture binds a texture resource to a sampler unit.
	CmdBindTexture
	// CmdDraw renders a mesh instance under the currently bound state,
	// with its model-view-projection transform taken from the frame's
	// MVPs.
	CmdDraw
)

// String names the command.
func (c CmdOp) String() string {
	switch c {
	case CmdClear:
		return "clear"
	case CmdBindProgram:
		return "bind_program"
	case CmdBindTexture:
		return "bind_texture"
	case CmdDraw:
		return "draw"
	default:
		return fmt.Sprintf("CmdOp(%d)", int(c))
	}
}

// Command is one entry of a frame's command stream. Fields are used
// according to Op. A draw's transform lives in Frame.MVPs, not here:
// only one command in three is a draw, and the 128-byte matrix would
// otherwise inflate every bind. The layout packs to 32 bytes.
type Command struct {
	Op CmdOp
	// Blend marks a CmdDraw as alpha-blended: its fragments are depth-
	// tested against opaque geometry but never write depth, and the
	// Blending Unit combines them with the framebuffer (Section II-A's
	// transparent, non-occluded fragments).
	Blend bool

	// CmdBindProgram: indices into Trace.VertexShaders and
	// Trace.FragmentShaders.
	VS, FS int32

	// CmdBindTexture: sampler unit and index into Trace.Textures.
	Unit, Texture int32

	// CmdDraw: index into Trace.Meshes.
	Mesh int32
	// DepthBias (CmdDraw) shifts the instance's depth range so layered
	// 2D games draw back-to-front deterministically.
	DepthBias float64
}

// Frame is the command stream of one rendered frame plus one transform
// per draw: the i-th CmdDraw of Commands uses MVPs[i].
type Frame struct {
	Commands []Command
	MVPs     []geom.Mat4
}

// DrawCount returns the number of draw commands in the frame.
func (f *Frame) DrawCount() int {
	n := 0
	for i := range f.Commands {
		if f.Commands[i].Op == CmdDraw {
			n++
		}
	}
	return n
}

// Trace is a complete captured workload: resources plus per-frame
// command streams.
type Trace struct {
	// Name identifies the workload (e.g. "bbr1").
	Name string
	// Viewport is the render target size in pixels.
	Viewport geom.Viewport
	// VertexShaders and FragmentShaders are the shader programs the
	// workload uses; CmdBindProgram indexes into these.
	VertexShaders   []*shader.Program
	FragmentShaders []*shader.Program
	// Meshes and Textures are the geometry/texture resources.
	Meshes   []Mesh
	Textures []Texture
	// Frames is the captured sequence.
	Frames []Frame
}

// NumFrames returns the number of frames in the trace.
func (t *Trace) NumFrames() int { return len(t.Frames) }

// Validate checks referential integrity of the whole trace: every
// resource index used by a command must exist, every shader program must
// itself validate, draws must appear only with a program bound earlier
// in the same frame (TBR drivers re-emit state per frame), and every
// frame must carry exactly one transform per draw.
func (t *Trace) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("gltrace: trace has empty name")
	}
	if t.Viewport.Width <= 0 || t.Viewport.Height <= 0 {
		return fmt.Errorf("gltrace %s: invalid viewport %dx%d", t.Name, t.Viewport.Width, t.Viewport.Height)
	}
	for i, p := range t.VertexShaders {
		if p.Kind != shader.VertexKind {
			return fmt.Errorf("gltrace %s: VertexShaders[%d] has kind %v", t.Name, i, p.Kind)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("gltrace %s: %w", t.Name, err)
		}
	}
	for i, p := range t.FragmentShaders {
		if p.Kind != shader.FragmentKind {
			return fmt.Errorf("gltrace %s: FragmentShaders[%d] has kind %v", t.Name, i, p.Kind)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("gltrace %s: %w", t.Name, err)
		}
	}
	for i := range t.Meshes {
		m := &t.Meshes[i]
		if len(m.Indices)%3 != 0 {
			return fmt.Errorf("gltrace %s: mesh %d index count %d not a multiple of 3", t.Name, i, len(m.Indices))
		}
		for _, idx := range m.Indices {
			if idx < 0 || idx >= len(m.Vertices) {
				return fmt.Errorf("gltrace %s: mesh %d references vertex %d of %d", t.Name, i, idx, len(m.Vertices))
			}
		}
	}
	for fi := range t.Frames {
		bound := false
		cmds := t.Frames[fi].Commands
		draws := 0
		for ci := range cmds {
			cmd := &cmds[ci]
			switch cmd.Op {
			case CmdBindProgram:
				if cmd.VS < 0 || int(cmd.VS) >= len(t.VertexShaders) {
					return fmt.Errorf("gltrace %s: frame %d cmd %d binds missing vertex shader %d", t.Name, fi, ci, cmd.VS)
				}
				if cmd.FS < 0 || int(cmd.FS) >= len(t.FragmentShaders) {
					return fmt.Errorf("gltrace %s: frame %d cmd %d binds missing fragment shader %d", t.Name, fi, ci, cmd.FS)
				}
				bound = true
			case CmdBindTexture:
				if cmd.Texture < 0 || int(cmd.Texture) >= len(t.Textures) {
					return fmt.Errorf("gltrace %s: frame %d cmd %d binds missing texture %d", t.Name, fi, ci, cmd.Texture)
				}
				if cmd.Unit < 0 || cmd.Unit >= 8 {
					return fmt.Errorf("gltrace %s: frame %d cmd %d binds sampler unit %d out of range", t.Name, fi, ci, cmd.Unit)
				}
			case CmdDraw:
				if cmd.Mesh < 0 || int(cmd.Mesh) >= len(t.Meshes) {
					return fmt.Errorf("gltrace %s: frame %d cmd %d draws missing mesh %d", t.Name, fi, ci, cmd.Mesh)
				}
				if !bound {
					return fmt.Errorf("gltrace %s: frame %d cmd %d draws with no program bound", t.Name, fi, ci)
				}
				draws++
			case CmdClear:
				// always valid
			default:
				return fmt.Errorf("gltrace %s: frame %d cmd %d has unknown op %d", t.Name, fi, ci, int(cmd.Op))
			}
		}
		if n := len(t.Frames[fi].MVPs); n != draws {
			return fmt.Errorf("gltrace %s: frame %d has %d transforms for %d draws (trace files written before per-frame transforms must be regenerated)", t.Name, fi, n, draws)
		}
	}
	return nil
}

// TotalPrimitives returns the total triangle count submitted across all
// frames (before clipping/culling).
func (t *Trace) TotalPrimitives() int {
	total := 0
	for fi := range t.Frames {
		cmds := t.Frames[fi].Commands
		for ci := range cmds {
			if cmds[ci].Op == CmdDraw {
				total += t.Meshes[cmds[ci].Mesh].TriangleCount()
			}
		}
	}
	return total
}

// Save writes the trace to w as gzip-compressed gob.
func (t *Trace) Save(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(t); err != nil {
		zw.Close()
		return fmt.Errorf("gltrace: encoding %s: %w", t.Name, err)
	}
	return zw.Close()
}

// Load reads a trace previously written by Save and validates it.
func Load(r io.Reader) (*Trace, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("gltrace: opening compressed trace: %w", err)
	}
	defer zr.Close()
	var t Trace
	if err := gob.NewDecoder(zr).Decode(&t); err != nil {
		return nil, fmt.Errorf("gltrace: decoding trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// SaveFile writes the trace to the named file.
func (t *Trace) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("gltrace: creating %s: %w", path, err)
	}
	if err := t.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a trace from the named file.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gltrace: opening %s: %w", path, err)
	}
	defer f.Close()
	return Load(f)
}
