package megsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/tbr"
)

// Resilience re-exports: the supervisor configuration and outcome types
// of internal/resilience, so a user can drive supervised runs from the
// single public import.
type (
	// ResilienceConfig configures the run supervisor: retry/backoff,
	// quarantine, checkpoint/resume, watchdog.
	ResilienceConfig = resilience.Config
	// ResilienceResult is the supervisor's outcome: completed stats,
	// quarantine records, resume/retry/stall accounting.
	ResilienceResult = resilience.Result
	// QuarantineRecord describes one frame the supervisor gave up on.
	QuarantineRecord = resilience.QuarantineRecord
	// DegradedSelection is a selection adjusted for quarantined frames.
	DegradedSelection = resilience.DegradedSelection
	// Substitution records one representative replaced by a stand-in.
	Substitution = resilience.Substitution
	// ResilientFrameFunc simulates one frame for the supervisor.
	ResilientFrameFunc = resilience.FrameFunc
)

// Supervise runs fn over frames under the run supervisor: per-frame
// retry with capped deterministic backoff, quarantine, frame-granularity
// checkpointing with resume, and the stall watchdog. It is the
// frame-loop primitive behind SampleResilient, exposed for callers (the
// gpusim CLI, custom sweeps) that bring their own frame list.
func Supervise(ctx context.Context, frames []int, fn ResilientFrameFunc, cfg ResilienceConfig) (*ResilienceResult, error) {
	return resilience.Run(ctx, frames, fn, cfg)
}

// ResilientRun is a sampling run executed under the run supervisor. On
// a healthy run it is exactly a Run; when frames were quarantined it
// additionally carries the supervision record and the degraded
// selection the estimate was computed from — degradation is always
// reported, never silent.
type ResilientRun struct {
	*Run
	// Supervision aggregates the supervisor outcomes (one per
	// degradation round): quarantines, retries, resumed frames, stalls.
	Supervision *ResilienceResult
	// Degradation is non-nil when representatives were substituted or
	// clusters lost; the Estimate then comes from the degraded
	// selection with rescaled weights.
	Degradation *DegradedSelection
}

// Degraded reports whether the estimate was computed from a degraded
// selection.
func (r *ResilientRun) Degraded() bool {
	return r.Degradation != nil && r.Degradation.Degraded()
}

// RunFingerprint identifies a (workload, GPU configuration) pair for
// checkpoint compatibility: resuming is only allowed when the trace and
// every result-affecting GPU setting match. Knobs that never affect
// per-frame results — observability, invariant checkers, and the
// tile-worker count (any TileWorkers >= 1 is byte-identical) — are
// excluded, so a run checkpointed on 4 tile workers resumes cleanly on
// 1.
func RunFingerprint(tr *Trace, gpu GPUConfig) string {
	g := gpu
	g.Obs = nil
	g.Check = nil
	if g.TileWorkers > 1 {
		g.TileWorkers = 1
	}
	b, err := json.Marshal(struct {
		Trace  string     `json:"trace"`
		Frames int        `json:"frames"`
		GPU    tbr.Config `json:"gpu"`
	}{tr.Name, tr.NumFrames(), g})
	if err != nil {
		// tbr.Config is plain data; failure here is a programming error.
		panic(fmt.Sprintf("megsim: fingerprint: %v", err))
	}
	sum := sha256.Sum256(b)
	return "megsim-" + hex.EncodeToString(sum[:12])
}

// FrameRunner adapts the cycle-level simulator to the supervisor's
// FrameFunc: each attempt simulates one frame on a fresh simulator
// instance recording into the supervisor's per-frame registry, so the
// result is a pure function of the frame (frame isolation) and failed
// attempts never leave torn state behind.
func FrameRunner(tr *Trace, gpu GPUConfig) resilience.FrameFunc {
	return func(ctx context.Context, frame int, reg *obs.Registry) (FrameStats, error) {
		if err := ctx.Err(); err != nil {
			return FrameStats{}, err
		}
		g := gpu
		g.Obs = reg
		sim, err := NewSimulator(g, tr)
		if err != nil {
			return FrameStats{}, err
		}
		return sim.SimulateFrame(frame), nil
	}
}

// SampleResilient is Sample under the run supervisor: representative
// frames are simulated with per-frame retry and quarantine, progress is
// checkpointed at frame granularity (when rcfg.CheckpointPath is set),
// and quarantined representatives degrade gracefully — the next-closest
// in-cluster frame substitutes, weights rescale, and the ResilientRun
// reports the degradation. Cancelling ctx stops at the next frame
// boundary with a final checkpoint flushed, so a later call with
// rcfg.Resume picks up exactly where the run died; the resumed run's
// estimate and observability are byte-identical to an uninterrupted one.
func SampleResilient(ctx context.Context, tr *Trace, cfg Config, gpu GPUConfig, rcfg ResilienceConfig) (*ResilientRun, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch, err := Characterize(tr)
	if err != nil {
		return nil, fmt.Errorf("megsim: characterization: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sel, err := SelectFrames(ch, cfg)
	if err != nil {
		return nil, fmt.Errorf("megsim: selection: %w", err)
	}
	return SampleResilientPrepared(ctx, tr, ch, sel, gpu, rcfg, FrameRunner(tr, gpu))
}

// SampleResilientPrepared is the supervise-then-degrade core of
// SampleResilient for callers that bring their own characterization,
// selection and frame function — the campaign service (internal/serve)
// uses it to reuse a content-addressed characterization cache and to
// wrap FrameRunner with a per-representative result cache. The
// semantics are exactly SampleResilient's given the same inputs: fn
// must be pure per frame (same frame, same stats), which FrameRunner —
// or a cache over it — provides.
func SampleResilientPrepared(ctx context.Context, tr *Trace, ch *Characterization, sel *Selection, gpu GPUConfig, rcfg ResilienceConfig, fn ResilientFrameFunc) (*ResilientRun, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rcfg.Fingerprint == "" {
		rcfg.Fingerprint = RunFingerprint(tr, gpu)
	}
	if rcfg.Obs == nil {
		rcfg.Obs = gpu.Obs
	}

	quarantined := map[int]bool{}
	for _, f := range rcfg.Quarantine {
		quarantined[f] = true
	}
	sup := &ResilienceResult{CheckpointPath: rcfg.CheckpointPath}
	for f := range quarantined {
		// Mirror the supervisor's record for frames the caller excluded
		// up front, so the quarantine is visible in one place.
		sup.Quarantined = append(sup.Quarantined, QuarantineRecord{Frame: f, Err: "pre-quarantined"})
	}
	sort.Slice(sup.Quarantined, func(i, j int) bool { return sup.Quarantined[i].Frame < sup.Quarantined[j].Frame })

	// Supervise-then-degrade fixed point: simulate the active
	// representatives; every newly quarantined frame re-degrades the
	// selection, whose substitutes are simulated in the next round.
	// Each round resumes the same checkpoint, so one file accumulates
	// the whole campaign. Terminates because each round either
	// quarantines a new frame (finitely many) or stops.
	repStats := map[int]FrameStats{}
	deg := resilience.Degrade(sel, quarantined)
	for round := 0; ; round++ {
		var todo []int
		for _, f := range deg.ActiveRepresentatives() {
			if _, done := repStats[f]; !done {
				todo = append(todo, f)
			}
		}
		if len(todo) == 0 {
			break
		}
		roundCfg := rcfg
		roundCfg.Quarantine = nil // pre-quarantine handled via Degrade
		if round > 0 {
			roundCfg.Resume = true // later rounds extend the round-0 checkpoint
		}
		r, err := resilience.Run(ctx, todo, fn, roundCfg)
		if r != nil {
			mergeSupervision(sup, r, round == 0)
			for f, st := range r.Stats {
				repStats[f] = st
			}
		}
		if err != nil {
			return &ResilientRun{Run: &Run{Trace: tr, Characterization: ch, Selection: sel}, Supervision: sup}, err
		}
		fresh := false
		for _, q := range r.Quarantined {
			if !quarantined[q.Frame] {
				quarantined[q.Frame] = true
				fresh = true
			}
		}
		if !fresh {
			break
		}
		deg = resilience.Degrade(sel, quarantined)
	}

	run := &Run{
		Trace:               tr,
		Characterization:    ch,
		Selection:           sel,
		RepresentativeStats: repStats,
	}
	out := &ResilientRun{Run: run, Supervision: sup}
	var err error
	if deg.Degraded() {
		out.Degradation = deg
		run.Estimate, err = deg.Estimate(repStats)
	} else {
		run.Estimate, err = sel.Estimate(repStats)
	}
	if err != nil {
		return out, fmt.Errorf("megsim: estimation: %w", err)
	}
	return out, nil
}

// mergeSupervision folds one supervisor round into the aggregate.
func mergeSupervision(dst, r *ResilienceResult, first bool) {
	if dst.Stats == nil {
		dst.Stats = map[int]FrameStats{}
	}
	for f, st := range r.Stats {
		dst.Stats[f] = st
	}
	seen := map[int]bool{}
	for _, q := range dst.Quarantined {
		seen[q.Frame] = true
	}
	for _, q := range r.Quarantined {
		if !seen[q.Frame] {
			dst.Quarantined = append(dst.Quarantined, q)
		}
	}
	sort.Slice(dst.Quarantined, func(i, j int) bool { return dst.Quarantined[i].Frame < dst.Quarantined[j].Frame })
	dst.Retried += r.Retried
	dst.Requeued += r.Requeued
	if first {
		// Only round 0 reflects a user-requested resume; later rounds
		// always "resume" the checkpoint this same call wrote.
		dst.Resumed = r.Resumed
		dst.ResumeErr = r.ResumeErr
	}
	for _, w := range r.StalledWorkers {
		found := false
		for _, have := range dst.StalledWorkers {
			if have == w {
				found = true
			}
		}
		if !found {
			dst.StalledWorkers = append(dst.StalledWorkers, w)
		}
	}
	sort.Ints(dst.StalledWorkers)
}

// SimulateFullParallelCtx runs the cycle-level simulator over every
// frame — the expensive baseline MEGsim avoids, exposed for validation
// studies — on tbr.SimulateFrames: across `workers` goroutines
// (0 = GOMAXPROCS) when GPUConfig.FlushCachesPerFrame isolates frames,
// in order on one simulator otherwise. Cancellation stops the run at
// the next frame claim.
func SimulateFullParallelCtx(ctx context.Context, tr *Trace, gpu GPUConfig, workers int) ([]FrameStats, error) {
	return tbr.SimulateFrames(ctx, gpu, tr, nil, workers)
}
