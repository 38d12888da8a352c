package funcsim

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/gltrace"
	"repro/internal/pool"
	"repro/internal/raster"
	"repro/internal/shader"
)

// Streamer characterizes frames one at a time — the incremental twin of
// Run — or a range of frames at once across GOMAXPROCS workers
// (ProfileRange). It owns the reusable rasterization scratch, so
// profiling a frame allocates nothing beyond the profile's count vectors
// and the shader executor's texture trace, and frames are characterized
// independently: the depth buffer is cleared and all binding state
// reset at every frame start, so ProfileInto(f) is a pure function of
// frame f's commands and the trace resources. That purity is what makes
// the frame-parallel range byte-identical to the serial loop.
//
// This is what lets the streaming sampler (internal/stream) consume an
// unbounded frame sequence with O(1) characterization state instead of
// materializing a whole funcsim.Result.
type Streamer struct {
	res   resources
	trace *gltrace.Trace // nil in resource mode
	clip  geom.AABB2
	// scratch[w] is worker w's mutable state; scratch[0] also serves the
	// one-frame entry points.
	scratch []*frameScratch

	vsStatic []shader.Cost
	fsStatic []shader.Cost
}

// frameScratch is everything one frame's characterization writes
// besides its profile. Programs, meshes and textures are shared
// read-only, so one frameScratch per worker is all frame parallelism
// needs.
type frameScratch struct {
	depth *raster.DepthBuffer
	tris  []raster.ScreenTriangle
	draw  raster.DrawScratch
	quads raster.QuadBatch
}

// resources is the frame-independent part of a trace: everything a
// single frame's command stream references.
type resources struct {
	name     string
	viewport geom.Viewport
	vs, fs   []*shader.Program
	meshes   []gltrace.Mesh
	textures []gltrace.Texture
}

// NewStreamer builds a streamer over a trace's resources. The trace
// must validate; its frames are profiled on demand with ProfileAt and
// ProfileRange.
func NewStreamer(tr *gltrace.Trace) (*Streamer, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return newStreamer(resources{
		name:     tr.Name,
		viewport: tr.Viewport,
		vs:       tr.VertexShaders,
		fs:       tr.FragmentShaders,
		meshes:   tr.Meshes,
		textures: tr.Textures,
	}, tr)
}

// NewResourceStreamer builds a streamer from bare resources, for frame
// streams that arrive without a containing trace (the megsimd
// chunked-upload endpoint). The resources are validated by wrapping
// them in a zero-frame trace.
func NewResourceStreamer(name string, vp geom.Viewport, vs, fs []*shader.Program, meshes []gltrace.Mesh, textures []gltrace.Texture) (*Streamer, error) {
	probe := &gltrace.Trace{
		Name:            name,
		Viewport:        vp,
		VertexShaders:   vs,
		FragmentShaders: fs,
		Meshes:          meshes,
		Textures:        textures,
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	return newStreamer(resources{
		name: name, viewport: vp, vs: vs, fs: fs, meshes: meshes, textures: textures,
	}, nil)
}

func newStreamer(res resources, tr *gltrace.Trace) (*Streamer, error) {
	s := &Streamer{
		res:   res,
		trace: tr,
		clip: geom.AABB2{Max: geom.Vec2{
			X: float64(res.viewport.Width), Y: float64(res.viewport.Height),
		}},
	}
	s.growScratch(1)
	for _, p := range res.vs {
		s.vsStatic = append(s.vsStatic, p.StaticCost())
	}
	for _, p := range res.fs {
		s.fsStatic = append(s.fsStatic, p.StaticCost())
	}
	return s, nil
}

// growScratch ensures at least n workers' scratch exists. Scratch is
// kept across calls, so a streamer profiling window after window
// allocates its depth buffers once.
func (s *Streamer) growScratch(n int) {
	for len(s.scratch) < n {
		s.scratch = append(s.scratch, &frameScratch{
			depth: raster.NewDepthBuffer(s.res.viewport.Width, s.res.viewport.Height),
		})
	}
}

// Static returns the per-program static costs (instruction counts and
// texture weights), the first thing the paper's characterization pass
// collects and the only global state the streaming sampler needs before
// the first frame arrives.
func (s *Streamer) Static() (vs, fs []shader.Cost) { return s.vsStatic, s.fsStatic }

// Name returns the workload name of the streamer's resources.
func (s *Streamer) Name() string { return s.res.name }

// NumFrames returns the trace length (0 in resource mode).
func (s *Streamer) NumFrames() int {
	if s.trace == nil {
		return 0
	}
	return s.trace.NumFrames()
}

// ProfileAt profiles frame f of the streamer's trace into dst. Only
// valid for trace-backed streamers. The trace was validated whole at
// NewStreamer, so no per-frame re-validation happens here.
func (s *Streamer) ProfileAt(dst *FrameProfile, f int) error {
	if err := s.checkRange(f, 1); err != nil {
		return err
	}
	s.scratch[0].profile(&s.res, s.clip, dst, &s.trace.Frames[f], f)
	return nil
}

// ProfileRange profiles frames [lo, lo+len(dst)) of the streamer's
// trace into dst, dst[i] receiving frame lo+i, across GOMAXPROCS
// workers. Each worker owns its scratch and writes its frames' profiles
// by index, so dst is identical to a ProfileAt loop for any worker
// count and any distribution of frames over workers. Cancelling ctx
// stops the workers at their next frame claim and returns ctx's error;
// dst is then partially written and must be discarded. Only valid for
// trace-backed streamers.
func (s *Streamer) ProfileRange(ctx context.Context, dst []FrameProfile, lo int) error {
	if err := s.checkRange(lo, len(dst)); err != nil {
		return err
	}
	workers := pool.Workers(0, len(dst))
	s.growScratch(workers)
	_, err := pool.Claim(ctx, workers, len(dst), func(w int) (func(int), error) {
		sc := s.scratch[w]
		return func(i int) { sc.profile(&s.res, s.clip, &dst[i], &s.trace.Frames[lo+i], lo+i) }, nil
	})
	if err != nil {
		return fmt.Errorf("funcsim: profiling frames [%d,%d): %w", lo, lo+len(dst), err)
	}
	return nil
}

// checkRange validates the frame range [lo, lo+n) of a trace-backed
// streamer.
func (s *Streamer) checkRange(lo, n int) error {
	if s.trace == nil {
		return fmt.Errorf("funcsim: streamer has no trace (resource mode)")
	}
	if lo < 0 || lo+n > s.trace.NumFrames() {
		if n == 1 {
			return fmt.Errorf("funcsim: frame %d out of range [0,%d)", lo, s.trace.NumFrames())
		}
		return fmt.Errorf("funcsim: frames [%d,%d) out of range [0,%d)", lo, lo+n, s.trace.NumFrames())
	}
	return nil
}

// ProfileInto characterizes one frame's command stream into dst,
// reusing dst's count slices when their lengths match. The frame's
// commands are validated against the streamer's resources first —
// malformed frames (out-of-range mesh/shader/texture references, draws
// with no program bound) return an error and leave dst untouched, so a
// hostile stream can never panic the rasterizer.
func (s *Streamer) ProfileInto(dst *FrameProfile, frame *gltrace.Frame, index int) error {
	if err := s.validateFrame(frame); err != nil {
		return err
	}
	s.scratch[0].profile(&s.res, s.clip, dst, frame, index)
	return nil
}

// profile is the per-frame characterization body every entry point
// executes, on a validated frame. It runs the same batched raster path
// as the timing simulator: geometry into reused scratch, each
// triangle's quads into a struct-of-arrays batch, then the early depth
// test over the batch in scan order.
func (sc *frameScratch) profile(res *resources, clip geom.AABB2, dst *FrameProfile, frame *gltrace.Frame, index int) {
	*dst = FrameProfile{Frame: index, VSCount: resizeU64(dst.VSCount, len(res.vs)), FSCount: resizeU64(dst.FSCount, len(res.fs))}
	depth := sc.depth
	depth.Clear()

	curVS, curFS := -1, -1
	curTex := 0
	for ci := range frame.Commands {
		cmd := &frame.Commands[ci]
		switch cmd.Op {
		case gltrace.CmdBindProgram:
			curVS, curFS = cmd.VS, cmd.FS
		case gltrace.CmdBindTexture:
			if cmd.Unit == 0 {
				curTex = cmd.Texture
			}
		case gltrace.CmdClear:
			depth.Clear()
		case gltrace.CmdDraw:
			mesh := &res.meshes[cmd.Mesh]
			dst.VSCount[curVS] += uint64(len(mesh.Vertices))

			// Functionally execute the bound programs once per draw
			// with draw-derived inputs; lock-step warps make all
			// invocations of a draw structurally identical, so one
			// execution yields the per-draw functional digest.
			vsOut := res.vs[curVS].Exec(shader.Regs{
				cmd.MVP[3], cmd.MVP[7], cmd.MVP[11], cmd.DepthBias,
			}, nil)
			fsOut := res.fs[curFS].Exec(shader.Regs{
				cmd.MVP[3], cmd.MVP[7], 0.5, 0.5,
			}, proceduralSampler{tex: curTex})
			dst.Checksum = mixChecksum(dst.Checksum, vsOut.Regs, fsOut.Regs)

			tris, gstats := raster.ProcessDrawScratch(mesh, cmd.MVP, res.viewport, cmd.DepthBias, sc.tris[:0], &sc.draw)
			sc.tris = tris
			dst.PrimsIn += uint64(gstats.PrimsIn)
			dst.PrimsVisible += uint64(gstats.Visible)

			blend := cmd.Blend
			var shaded uint64
			q := &sc.quads
			for t := range tris {
				q.Reset()
				q.AppendQuads(&tris[t], clip)
				for i, n := 0, q.Len(); i < n; i++ {
					x, y, d, m := int(q.X[i]), int(q.Y[i]), q.Depth[i*4:i*4+4], q.Mask[i]
					var surviving uint8
					if blend {
						// Transparent fragments are depth-tested but
						// never write depth.
						surviving = depth.TestMaskReadOnly(x, y, d, m)
					} else {
						surviving = depth.TestMask(x, y, d, m)
					}
					shaded += uint64(bits.OnesCount8(surviving))
				}
			}
			dst.FSCount[curFS] += shaded
			dst.Fragments += shaded
		}
	}
}

// validateFrame checks one frame's referential integrity against the
// streamer's resources — the per-frame slice of gltrace.Trace.Validate.
func (s *Streamer) validateFrame(frame *gltrace.Frame) error {
	bound := false
	for ci, cmd := range frame.Commands {
		switch cmd.Op {
		case gltrace.CmdBindProgram:
			if cmd.VS < 0 || cmd.VS >= len(s.res.vs) {
				return fmt.Errorf("funcsim: cmd %d binds missing vertex shader %d", ci, cmd.VS)
			}
			if cmd.FS < 0 || cmd.FS >= len(s.res.fs) {
				return fmt.Errorf("funcsim: cmd %d binds missing fragment shader %d", ci, cmd.FS)
			}
			bound = true
		case gltrace.CmdBindTexture:
			if cmd.Texture < 0 || cmd.Texture >= len(s.res.textures) {
				return fmt.Errorf("funcsim: cmd %d binds missing texture %d", ci, cmd.Texture)
			}
			if cmd.Unit < 0 || cmd.Unit >= 8 {
				return fmt.Errorf("funcsim: cmd %d binds sampler unit %d out of range", ci, cmd.Unit)
			}
		case gltrace.CmdDraw:
			if cmd.Mesh < 0 || cmd.Mesh >= len(s.res.meshes) {
				return fmt.Errorf("funcsim: cmd %d draws missing mesh %d", ci, cmd.Mesh)
			}
			if !bound {
				return fmt.Errorf("funcsim: cmd %d draws with no program bound", ci)
			}
		case gltrace.CmdClear:
			// always valid
		default:
			return fmt.Errorf("funcsim: cmd %d has unknown op %d", ci, int(cmd.Op))
		}
	}
	return nil
}

func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
