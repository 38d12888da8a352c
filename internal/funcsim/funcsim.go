// Package funcsim is the functional GPU simulator: it walks a trace's
// command stream — transforming geometry, culling, rasterizing and
// depth-testing exactly like the timing simulator, and counting the
// shader invocations each draw makes — but models no timing and
// executes no shader program. Its output is the per-frame activity
// profile MEGsim characterizes frames with: per-shader invocation
// counts (VSCV/FSCV) and primitive counts (PRIM). No characterization
// input depends on what a shader computes, only on how often it runs
// and on its static cost.
//
// This mirrors TEAPOT's instrumented-Softpipe functional component: the
// characterization inputs are architecture-independent and cheap to
// collect (Section III-B of the paper), so running the functional
// simulator over the full sequence is the inexpensive first step of the
// methodology.
package funcsim

import (
	"context"

	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/shader"
)

// FrameProfile is the raw per-frame activity measurement. The MEGsim
// core turns these into weighted vectors of characteristics.
type FrameProfile struct {
	// Frame is the frame index.
	Frame int
	// VSCount[i] is the number of invocations of vertex shader i
	// (vertices shaded under that program).
	VSCount []uint64
	// FSCount[i] is the number of invocations of fragment shader i
	// (fragments shaded after the early depth test).
	FSCount []uint64
	// PrimsIn and PrimsVisible count primitives before and after
	// clipping/culling; PrimsVisible is the PRIM characterization
	// parameter (the Tiling Engine's workload).
	PrimsIn      uint64
	PrimsVisible uint64
	// Fragments is the total shaded fragment count.
	Fragments uint64
}

// Result is the functional simulation of a whole trace.
type Result struct {
	// Trace identifies the simulated workload.
	Trace string
	// Profiles has one entry per frame.
	Profiles []FrameProfile
	// VSStatic and FSStatic are the per-program static costs
	// (instruction counts and texture weights) collected during the
	// same pass, as the paper's first step does.
	VSStatic []shader.Cost
	FSStatic []shader.Cost
}

// Run functionally simulates every frame of the trace, which must
// validate. When reg is enabled it receives the characterization
// workload counters ("funcsim.frames", ".draws", ".fragments") and a
// per-frame fragment-count histogram ("funcsim.frame_fragments"); a nil
// registry records nothing. Cancelling ctx stops the pass at the next
// frame claim and returns ctx's error with no result.
//
// Frames are profiled across GOMAXPROCS workers (Streamer.ProfileRange);
// the observations are recorded after the join in frame order, so the
// result and the registry snapshot are the same for any worker count.
func Run(ctx context.Context, trace *gltrace.Trace, reg *obs.Registry) (*Result, error) {
	st, err := NewStreamer(trace)
	if err != nil {
		return nil, err
	}
	res := &Result{Trace: trace.Name, Profiles: make([]FrameProfile, trace.NumFrames())}
	res.VSStatic, res.FSStatic = st.Static()
	if err := st.ProfileRange(ctx, res.Profiles, 0); err != nil {
		return nil, err
	}

	var (
		cFrames    = reg.Counter("funcsim.frames")
		cDraws     = reg.Counter("funcsim.draws")
		cFragments = reg.Counter("funcsim.fragments")
		hFragments = reg.Histogram("funcsim.frame_fragments")
	)
	for f := range res.Profiles {
		cDraws.Add(uint64(trace.Frames[f].DrawCount()))
		cFrames.Inc()
		cFragments.Add(res.Profiles[f].Fragments)
		hFragments.Observe(res.Profiles[f].Fragments)
	}
	return res, nil
}
