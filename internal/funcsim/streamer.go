package funcsim

import (
	"context"
	"fmt"

	"repro/internal/gltrace"
	"repro/internal/pool"
	"repro/internal/raster"
	"repro/internal/shader"
)

// Streamer characterizes frames one at a time (ProfileAt) or a range of
// frames at once across GOMAXPROCS workers (ProfileRange). Each draw
// goes through raster's fused count-only pass (DepthBuffer.CountDraw):
// transform, cull and a count-only walk per visible triangle, which
// shares its visibility rule and coverage code with the timing
// simulator's geometry pass and rasterizer but stores no triangle or
// quad. The streamer owns the reusable transform scratch and depth
// buffers, so profiling a frame allocates nothing beyond the profile's
// count vectors and the shader executor's texture trace, and frames are
// characterized independently: the depth buffer is cleared and all
// binding state reset at every frame start, so a frame's profile is a
// pure function of its commands and the trace resources. A clear resets
// only the rectangle the frame's depth writes reached, and the frame
// start's clear makes the CmdClear every trace opens a frame with free.
// That purity is what makes the frame-parallel range byte-identical to
// the serial loop.
//
// This is what lets the streaming sampler (internal/stream) consume a
// long frame sequence with O(1) characterization state instead of
// materializing a whole funcsim.Result.
type Streamer struct {
	trace *gltrace.Trace
	// scratch[w] is worker w's mutable state; scratch[0] also serves
	// ProfileAt.
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
	draw  raster.DrawScratch
}

// NewStreamer builds a streamer over a trace's resources. The trace
// must validate; its frames are profiled on demand with ProfileAt and
// ProfileRange.
func NewStreamer(tr *gltrace.Trace) (*Streamer, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	s := &Streamer{trace: tr}
	s.growScratch(1)
	for _, p := range tr.VertexShaders {
		s.vsStatic = append(s.vsStatic, p.StaticCost())
	}
	for _, p := range tr.FragmentShaders {
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
			depth: raster.NewDepthBuffer(s.trace.Viewport.Width, s.trace.Viewport.Height),
		})
	}
}

// Static returns the per-program static costs (instruction counts and
// texture weights), the first thing the paper's characterization pass
// collects and the only global state the streaming sampler needs before
// the first frame arrives.
func (s *Streamer) Static() (vs, fs []shader.Cost) { return s.vsStatic, s.fsStatic }

// ProfileAt profiles frame f of the streamer's trace into dst. The
// trace was validated whole at NewStreamer, so no per-frame
// re-validation happens here.
func (s *Streamer) ProfileAt(dst *FrameProfile, f int) error {
	if err := s.checkRange(f, 1); err != nil {
		return err
	}
	s.scratch[0].profile(s.trace, dst, f)
	return nil
}

// ProfileRange profiles frames [lo, lo+len(dst)) of the streamer's
// trace into dst, dst[i] receiving frame lo+i, across GOMAXPROCS
// workers. Each worker owns its scratch and writes its frames' profiles
// by index, so dst is identical to a ProfileAt loop for any worker
// count and any distribution of frames over workers. Cancelling ctx
// stops the workers at their next frame claim and returns ctx's error;
// dst is then partially written and must be discarded.
func (s *Streamer) ProfileRange(ctx context.Context, dst []FrameProfile, lo int) error {
	if err := s.checkRange(lo, len(dst)); err != nil {
		return err
	}
	workers := pool.Workers(0, len(dst))
	s.growScratch(workers)
	_, err := pool.Claim(ctx, workers, len(dst), func(w int) (func(int), error) {
		sc := s.scratch[w]
		return func(i int) { sc.profile(s.trace, &dst[i], lo+i) }, nil
	})
	if err != nil {
		return fmt.Errorf("funcsim: profiling frames [%d,%d): %w", lo, lo+len(dst), err)
	}
	return nil
}

// checkRange validates the frame range [lo, lo+n).
func (s *Streamer) checkRange(lo, n int) error {
	if lo < 0 || lo+n > s.trace.NumFrames() {
		if n == 1 {
			return fmt.Errorf("funcsim: frame %d out of range [0,%d)", lo, s.trace.NumFrames())
		}
		return fmt.Errorf("funcsim: frames [%d,%d) out of range [0,%d)", lo, lo+n, s.trace.NumFrames())
	}
	return nil
}

// profile is the per-frame characterization body both entry points
// execute, on frame index of a validated trace: one fused CountDraw per
// draw, which transforms into reused scratch and early-Z tests each
// covered sample in place.
func (sc *frameScratch) profile(tr *gltrace.Trace, dst *FrameProfile, index int) {
	*dst = FrameProfile{Frame: index, VSCount: resizeU64(dst.VSCount, len(tr.VertexShaders)), FSCount: resizeU64(dst.FSCount, len(tr.FragmentShaders))}
	frame := &tr.Frames[index]
	depth := sc.depth
	depth.Clear()

	curVS, curFS := -1, -1
	curTex := 0
	draw := 0 // index of the next draw's transform in frame.MVPs
	for ci := range frame.Commands {
		cmd := &frame.Commands[ci]
		switch cmd.Op {
		case gltrace.CmdBindProgram:
			curVS, curFS = int(cmd.VS), int(cmd.FS)
		case gltrace.CmdBindTexture:
			if cmd.Unit == 0 {
				curTex = int(cmd.Texture)
			}
		case gltrace.CmdClear:
			depth.Clear()
		case gltrace.CmdDraw:
			mesh := &tr.Meshes[cmd.Mesh]
			dst.VSCount[curVS] += uint64(len(mesh.Vertices))

			mvp := &frame.MVPs[draw]
			draw++

			// Functionally execute the bound programs once per draw
			// with draw-derived inputs; lock-step warps make all
			// invocations of a draw structurally identical, so one
			// execution yields the per-draw functional digest.
			vsOut := tr.VertexShaders[curVS].Exec(shader.Regs{
				mvp[3], mvp[7], mvp[11], cmd.DepthBias,
			}, nil)
			fsOut := tr.FragmentShaders[curFS].Exec(shader.Regs{
				mvp[3], mvp[7], 0.5, 0.5,
			}, proceduralSampler{tex: curTex})
			dst.Checksum = mixChecksum(dst.Checksum, vsOut.Regs, fsOut.Regs)

			// Transparent fragments are depth-tested but never write
			// depth.
			shaded, gstats := depth.CountDraw(mesh, mvp, tr.Viewport, cmd.DepthBias, cmd.Blend, &sc.draw)
			dst.PrimsIn += uint64(gstats.PrimsIn)
			dst.PrimsVisible += uint64(gstats.Visible)
			dst.FSCount[curFS] += shaded
			dst.Fragments += shaded
		}
	}
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
