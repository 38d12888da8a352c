// Package funcsim is the functional GPU simulator: it executes a trace's
// command stream — transforming geometry, binning, rasterizing and
// depth-testing exactly like the timing simulator, and functionally
// executing shader programs — but models no timing at all. Its output is
// the per-frame activity profile MEGsim characterizes frames with:
// per-shader execution counts (VSCV/FSCV) and primitive counts (PRIM).
//
// This mirrors TEAPOT's instrumented-Softpipe functional component: the
// characterization inputs are architecture-independent and cheap to
// collect (Section III-B of the paper), so running the functional
// simulator over the full sequence is the inexpensive first step of the
// methodology.
package funcsim

import (
	"context"
	"fmt"
	"math"

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
	// Checksum is a deterministic digest of functional shader outputs,
	// usable to verify that two runs rendered identical frames.
	Checksum uint64
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

// proceduralSampler returns deterministic texel values derived from the
// texture id and coordinates, so functional execution has real data
// without texture images.
type proceduralSampler struct {
	tex int
}

func (p proceduralSampler) Sample(unit int, u, v float64, f shader.FilterMode) float64 {
	x := math.Sin(u*12.9898+v*78.233+float64(p.tex)*3.7+float64(unit)) * 43758.5453
	return x - math.Floor(x)
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

func mixChecksum(sum uint64, regSets ...shader.Regs) uint64 {
	for _, regs := range regSets {
		for _, r := range regs {
			bits := math.Float64bits(r)
			sum ^= bits + 0x9e3779b97f4a7c15 + (sum << 6) + (sum >> 2)
		}
	}
	return sum
}

// validate checks internal consistency of a result against its trace.
func (r *Result) validate(trace *gltrace.Trace) error {
	if r.Trace != trace.Name {
		return fmt.Errorf("funcsim: result for %q validated against trace %q", r.Trace, trace.Name)
	}
	if len(r.Profiles) != trace.NumFrames() {
		return fmt.Errorf("funcsim: %d profiles for %d frames", len(r.Profiles), trace.NumFrames())
	}
	for i := range r.Profiles {
		p := &r.Profiles[i]
		if p.Frame != i {
			return fmt.Errorf("funcsim: profile %d has frame index %d", i, p.Frame)
		}
		if len(p.VSCount) != len(trace.VertexShaders) || len(p.FSCount) != len(trace.FragmentShaders) {
			return fmt.Errorf("funcsim: profile %d has wrong vector lengths", i)
		}
		if p.PrimsVisible > p.PrimsIn {
			return fmt.Errorf("funcsim: profile %d has more visible than submitted primitives", i)
		}
	}
	return nil
}
