package gltrace

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/shader"
)

// Recorder is an immediate-mode command API that captures a Trace — the
// role of TEAPOT's OpenGL interceptor, for users who want to author
// workloads programmatically instead of through the workload.Profile
// DSL. Resources are registered up front; per-frame calls mirror a GL
// driver: bind state, draw, end the frame.
//
// The zero value is not usable; construct with NewRecorder. Recorder
// methods panic on invalid resource handles (programming errors), while
// Finish validates the assembled trace and reports stream-level
// problems as errors.
type Recorder struct {
	trace    Trace
	frame    Frame
	inFrame  bool
	bound    bool
	finished bool
}

// NewRecorder starts a capture for a render target of the given size.
func NewRecorder(name string, width, height int) *Recorder {
	return &Recorder{
		trace: Trace{
			Name:     name,
			Viewport: geom.Viewport{Width: width, Height: height},
		},
	}
}

// MeshHandle references a registered mesh.
type MeshHandle int

// TextureHandle references a registered texture.
type TextureHandle int

// ProgramHandle references a registered vertex+fragment shader pair.
type ProgramHandle int

// AddMesh registers a mesh and returns its handle.
func (r *Recorder) AddMesh(m Mesh) MeshHandle {
	r.trace.Meshes = append(r.trace.Meshes, m)
	return MeshHandle(len(r.trace.Meshes) - 1)
}

// AddTexture registers a texture and returns its handle.
func (r *Recorder) AddTexture(t Texture) TextureHandle {
	r.trace.Textures = append(r.trace.Textures, t)
	return TextureHandle(len(r.trace.Textures) - 1)
}

// AddProgram registers a vertex+fragment shader pair as one program.
// Both programs must validate and have the matching kinds.
func (r *Recorder) AddProgram(vs, fs *shader.Program) (ProgramHandle, error) {
	if vs == nil || fs == nil {
		return 0, fmt.Errorf("gltrace: AddProgram needs both shaders")
	}
	if vs.Kind != shader.VertexKind || fs.Kind != shader.FragmentKind {
		return 0, fmt.Errorf("gltrace: AddProgram kinds are %v/%v, want vertex/fragment", vs.Kind, fs.Kind)
	}
	if err := vs.Validate(); err != nil {
		return 0, err
	}
	if err := fs.Validate(); err != nil {
		return 0, err
	}
	r.trace.VertexShaders = append(r.trace.VertexShaders, vs)
	r.trace.FragmentShaders = append(r.trace.FragmentShaders, fs)
	return ProgramHandle(len(r.trace.VertexShaders) - 1), nil
}

// BeginFrame opens a new frame and clears the render target.
func (r *Recorder) BeginFrame() {
	if r.finished {
		panic("gltrace: Recorder used after Finish")
	}
	if r.inFrame {
		panic("gltrace: BeginFrame inside an open frame")
	}
	r.inFrame = true
	r.bound = false
	r.frame = Frame{Commands: []Command{{Op: CmdClear}}}
}

// UseProgram binds a program for subsequent draws.
func (r *Recorder) UseProgram(p ProgramHandle) {
	r.mustBeInFrame("UseProgram")
	if int(p) < 0 || int(p) >= len(r.trace.VertexShaders) {
		panic(fmt.Sprintf("gltrace: UseProgram(%d) with %d programs registered", p, len(r.trace.VertexShaders)))
	}
	r.frame.Commands = append(r.frame.Commands, Command{Op: CmdBindProgram, VS: int32(p), FS: int32(p)})
	r.bound = true
}

// BindTexture binds a texture to a sampler unit in [0, 8).
func (r *Recorder) BindTexture(unit int, t TextureHandle) {
	r.mustBeInFrame("BindTexture")
	if int(t) < 0 || int(t) >= len(r.trace.Textures) {
		panic(fmt.Sprintf("gltrace: BindTexture(%d) with %d textures registered", t, len(r.trace.Textures)))
	}
	if unit < 0 || unit >= 8 {
		panic(fmt.Sprintf("gltrace: BindTexture on sampler unit %d out of range", unit))
	}
	r.frame.Commands = append(r.frame.Commands, Command{Op: CmdBindTexture, Unit: int32(unit), Texture: int32(t)})
}

// Draw submits a mesh instance under the current state.
func (r *Recorder) Draw(m MeshHandle, mvp geom.Mat4) {
	r.mustBeInFrame("Draw")
	if !r.bound {
		panic("gltrace: Draw with no program bound")
	}
	if int(m) < 0 || int(m) >= len(r.trace.Meshes) {
		panic(fmt.Sprintf("gltrace: Draw(%d) with %d meshes registered", m, len(r.trace.Meshes)))
	}
	r.frame.Commands = append(r.frame.Commands, Command{Op: CmdDraw, Mesh: int32(m)})
	r.frame.MVPs = append(r.frame.MVPs, mvp)
}

// EndFrame closes the current frame (the SwapBuffers moment).
func (r *Recorder) EndFrame() {
	r.mustBeInFrame("EndFrame")
	r.trace.Frames = append(r.trace.Frames, r.frame)
	r.inFrame = false
}

// Finish validates and returns the captured trace. The recorder cannot
// be used afterwards.
func (r *Recorder) Finish() (*Trace, error) {
	if r.inFrame {
		return nil, fmt.Errorf("gltrace: Finish inside an open frame")
	}
	if r.finished {
		return nil, fmt.Errorf("gltrace: Finish called twice")
	}
	r.finished = true
	if err := r.trace.Validate(); err != nil {
		return nil, err
	}
	return &r.trace, nil
}

func (r *Recorder) mustBeInFrame(op string) {
	if r.finished {
		panic("gltrace: Recorder used after Finish")
	}
	if !r.inFrame {
		panic("gltrace: " + op + " outside BeginFrame/EndFrame")
	}
}
