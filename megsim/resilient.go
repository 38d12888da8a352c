package megsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
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
	// Degradation records how a campaign's plan deviates from its
	// healthy representatives (substitutions, lost groups, coverage) and
	// extrapolates from that plan.
	Degradation = core.Degradation
	// Substitution records one representative replaced by a stand-in.
	Substitution = core.Substitution
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
// additionally carries the supervision record and the degradation the
// estimate was computed from — degradation is always reported, never
// silent.
type ResilientRun struct {
	*Run
	// Supervision aggregates the supervisor outcomes (one per
	// degradation round): quarantines, retries, resumed frames, stalls.
	Supervision *ResilienceResult
	// Degradation is non-nil when representatives were substituted or
	// clusters lost; the Estimate then comes from the degraded plan
	// with rescaled weights.
	Degradation *Degradation
}

// Degraded reports whether the estimate was computed from a degraded
// plan.
func (r *ResilientRun) Degraded() bool { return r.Degradation.Degraded() }

// RunFingerprint identifies a (workload, GPU configuration) pair for
// checkpoint compatibility: resuming is only allowed when the trace and
// every result-affecting GPU setting match. Knobs that never affect
// per-frame results — observability and invariant checkers — are
// excluded.
func RunFingerprint(tr *Trace, gpu GPUConfig) string {
	g := gpu
	g.Obs = nil
	g.Check = nil
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
// FrameFunc: each attempt simulates one frame recording into the
// supervisor's per-frame registry, and the result is a pure function of
// the frame (frame isolation).
//
// With FlushCachesPerFrame (every preset) the runner keeps a free list
// of at most GOMAXPROCS idle simulators: an attempt takes one (or
// builds one, validating the trace, when none is idle), rebinds it to
// the attempt's registry, and returns it after the frame; a simulator
// returned to a full list is dropped. Every frame cold-starts its
// caches, DRAM and queues, so the stats and obs deltas are
// byte-identical to a fresh simulator's. A simulator whose frame
// panicked is dropped, never reused, so a failed attempt leaves no torn
// state behind. In warm mode a frame's result depends on what ran
// before it, so every attempt builds a fresh simulator.
func FrameRunner(tr *Trace, gpu GPUConfig) resilience.FrameFunc {
	return (&simPool{tr: tr, gpu: gpu}).run
}

// simPool is FrameRunner's free list of idle simulators.
type simPool struct {
	tr  *Trace
	gpu GPUConfig

	mu   sync.Mutex
	idle []*Simulator
}

func (p *simPool) run(ctx context.Context, frame int, reg *obs.Registry) (FrameStats, error) {
	if err := ctx.Err(); err != nil {
		return FrameStats{}, err
	}
	sim, err := p.get(reg)
	if err != nil {
		return FrameStats{}, err
	}
	st := sim.SimulateFrame(frame) // a panic drops sim along with the attempt
	p.put(sim)
	return st, nil
}

// get returns a simulator recording into reg: an idle one rebound to
// reg, else a new one.
func (p *simPool) get(reg *obs.Registry) (*Simulator, error) {
	if p.gpu.FlushCachesPerFrame {
		p.mu.Lock()
		n := len(p.idle)
		var sim *Simulator
		if n > 0 {
			sim, p.idle = p.idle[n-1], p.idle[:n-1]
		}
		p.mu.Unlock()
		if sim != nil {
			sim.SetObs(reg)
			return sim, nil
		}
	}
	g := p.gpu
	g.Obs = reg
	return NewSimulator(g, p.tr)
}

// put returns sim to the free list unless the runner is in warm mode or
// the list already holds GOMAXPROCS simulators, the supervisor's
// default worker count.
func (p *simPool) put(sim *Simulator) {
	if !p.gpu.FlushCachesPerFrame {
		return
	}
	sim.SetObs(nil) // an idle simulator must not pin the attempt's registry
	p.mu.Lock()
	if len(p.idle) < runtime.GOMAXPROCS(0) {
		p.idle = append(p.idle, sim)
	}
	p.mu.Unlock()
}

// SampleResilient executes the full MEGsim flow on a trace:
// characterize, select representatives, simulate only those frames on
// the cycle-level simulator, and extrapolate full-sequence statistics.
// It runs under the run supervisor: representative frames are
// simulated with per-frame retry and quarantine, progress is
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

	deg, sup, err := settle(ctx, sel, fn, rcfg)
	run := &Run{Trace: tr, Characterization: ch, Selection: sel}
	out := &ResilientRun{Run: run, Supervision: sup}
	if err != nil {
		return out, err
	}
	run.RepresentativeStats = sup.Stats
	if deg.Degraded() {
		out.Degradation = deg
	}
	if run.Estimate, err = deg.Estimate(sup.Stats); err != nil {
		return out, fmt.Errorf("megsim: estimation: %w", err)
	}
	return out, nil
}

// degradable is a selection the degrade loop can re-plan around
// quarantined frames: a batch Selection (clusters) or a StreamSelection
// (strata). Degrade's Plan maps each group to the frame standing for
// it (-1 = lost).
type degradable interface {
	Degrade(quarantined map[int]bool) *Degradation
}

// settle is the supervise-then-degrade fixed point every campaign runs
// once its selection is final: simulate the plan; every fresh
// quarantine re-plans (a substitute, or a lost group), and the new
// frames run in the next round. Frames cfg.Quarantine excludes up front
// are recorded as pre-quarantined, so the quarantine is visible in one
// place in batch and streaming campaigns alike. Rounds after the first
// resume cfg's checkpoint, so one file accumulates the whole campaign.
// The returned supervision aggregates every round, its Stats holding
// every simulated frame, and is non-nil even on error. Terminates
// because each round either quarantines a new frame (finitely many) or
// requests nothing new.
func settle(ctx context.Context, sel degradable, fn ResilientFrameFunc, cfg ResilienceConfig) (*Degradation, *ResilienceResult, error) {
	sup := &ResilienceResult{CheckpointPath: cfg.CheckpointPath, Stats: map[int]FrameStats{}}
	quarantined := map[int]bool{}
	for _, f := range cfg.Quarantine {
		if !quarantined[f] {
			quarantined[f] = true
			sup.Quarantined = append(sup.Quarantined, QuarantineRecord{Frame: f, Err: "pre-quarantined"})
		}
	}
	sort.Slice(sup.Quarantined, func(i, j int) bool { return sup.Quarantined[i].Frame < sup.Quarantined[j].Frame })
	// The plan already routes around pre-quarantined frames.
	cfg.Quarantine = nil
	requested := map[int]bool{}
	for round := 0; ; round++ {
		deg := sel.Degrade(quarantined)
		var todo []int
		for _, f := range deg.Plan {
			if f >= 0 && !requested[f] {
				requested[f] = true
				todo = append(todo, f)
			}
		}
		if len(todo) == 0 {
			return deg, sup, nil
		}
		if round > 0 {
			cfg.Resume = true
		}
		r, err := resilience.Run(ctx, todo, fn, cfg)
		if r != nil {
			mergeSupervision(sup, r, round == 0)
			for _, q := range r.Quarantined {
				quarantined[q.Frame] = true
			}
		}
		if err != nil {
			return nil, sup, err
		}
	}
}

// mergeSupervision folds one supervisor round into the aggregate.
func mergeSupervision(dst, r *ResilienceResult, first bool) {
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
