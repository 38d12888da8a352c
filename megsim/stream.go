package megsim

import (
	"context"
	"fmt"

	"repro/internal/funcsim"
	"repro/internal/resilience"
	"repro/internal/stream"
)

// Streaming re-exports: the bounded-memory online first phase of
// internal/stream, usable from the single public import.
type (
	// StreamConfig configures the online stratifier: stratum budget,
	// per-stratum reservoir capacity, seed, feature construction.
	StreamConfig = stream.Config
	// StreamSelection is the streaming second-phase plan: strata with
	// member counts, representatives and substitution alternates.
	StreamSelection = stream.Selection
	// StreamStratum is one finalized stratum.
	StreamStratum = stream.Stratum
	// StreamDegradation reports substituted representatives and lost
	// strata in a streaming estimate.
	StreamDegradation = stream.Degradation
	// StreamIngestor is the online stratifier itself, for callers that
	// feed frames from their own source (the campaign service's
	// chunked-upload sessions).
	StreamIngestor = stream.Ingestor
)

// DefaultStreamConfig returns the paper-faithful streaming settings.
func DefaultStreamConfig() StreamConfig { return stream.DefaultConfig() }

// NewStreamIngestor builds an online stratifier over a trace's static
// shader costs without touching its frames.
func NewStreamIngestor(tr *Trace, cfg StreamConfig) (*StreamIngestor, error) {
	st, err := funcsim.NewStreamer(tr)
	if err != nil {
		return nil, err
	}
	vs, fs := st.Static()
	return stream.NewIngestor(tr.Name, vs, fs, cfg), nil
}

// StreamingOptions configures SampleStreaming.
type StreamingOptions struct {
	// Stream configures the online first phase (zero value = defaults).
	Stream StreamConfig
	// Resilience configures the phase-2 supervisor: retry, quarantine,
	// checkpointing. With CheckpointPath set, ingest progress (the
	// strata snapshot) checkpoints alongside simulated frames inside
	// the same CRC envelope, and Resume restarts mid-stream.
	Resilience ResilienceConfig
	// EagerEvery launches representative simulations mid-stream every
	// EagerEvery ingested frames — the "second phase as strata
	// stabilize" mode. Simulated frames are pure per frame, so eager
	// results are a warm cache: frames still representative at stream
	// end are adopted, the rest are wasted work but never wrong.
	// 0 = run phase 2 only at stream end.
	EagerEvery int
	// CheckpointEvery bounds how many ingested frames a crash can lose
	// (0 = DefaultStreamCheckpointEvery; negative = checkpoint only at
	// phase boundaries). Ignored without a CheckpointPath.
	CheckpointEvery int
	// Runner overrides the phase-2 frame function (nil = the in-process
	// simulator via FrameRunner). The campaign service wraps its
	// per-representative stats cache and remote dispatch here; the
	// function must honor FrameRunner's purity contract.
	Runner ResilientFrameFunc
	// Snapshot, when non-empty, seeds the ingestor from a strata
	// snapshot taken by another Ingestor over the same workload (the
	// service's chunked-upload sessions hand their ingest state to the
	// phase-2 job this way). A checkpoint's own stream state, when
	// present, takes precedence. Restore failure falls back to
	// re-ingesting from frame zero and is reported in StreamResumeErr.
	Snapshot []byte
	// MaxFrames truncates the stream to its first MaxFrames frames
	// (0 = the whole trace): the estimate then extrapolates over the
	// streamed prefix only, which is what a chunked-upload session that
	// stopped early means.
	MaxFrames int
}

// DefaultStreamCheckpointEvery is the default ingest checkpoint cadence.
const DefaultStreamCheckpointEvery = 16

// streamWindow bounds how many frames SampleStreaming characterizes
// ahead of ingest: enough to balance frames of uneven cost across
// workers, few enough that the profiles held stay a small constant.
const streamWindow = 64

// StreamingRun is the outcome of a streaming sampling campaign.
type StreamingRun struct {
	// Trace is the analyzed workload.
	Trace *Trace
	// Selection is the finalized streaming selection.
	Selection *StreamSelection
	// RepresentativeStats maps simulated frame -> stats (it may hold
	// extra frames simulated eagerly for strata that later merged).
	RepresentativeStats map[int]FrameStats
	// Estimate is the extrapolated full-stream statistics.
	Estimate FrameStats
	// Supervision aggregates the phase-2 supervisor outcomes.
	Supervision *ResilienceResult
	// Degradation is non-nil when representatives were substituted or
	// strata lost; never silent.
	Degradation *StreamDegradation
	// ResumedFrames counts ingest work skipped by restoring a strata
	// snapshot (frames NOT re-characterized on resume).
	ResumedFrames int
	// StreamResumeErr records why a requested mid-stream resume fell
	// back to re-ingesting from frame zero (missing/corrupt/mismatched
	// snapshot). Re-ingest reproduces the identical strata, so this is
	// a performance note, not an accuracy one.
	StreamResumeErr error
}

// Representatives returns the frames the final plan simulated.
func (r *StreamingRun) Representatives() []int { return r.Selection.Representatives() }

// ReductionFactor returns frames/strata.
func (r *StreamingRun) ReductionFactor() float64 { return r.Selection.ReductionFactor() }

// Degraded reports whether the estimate was computed from a degraded
// plan.
func (r *StreamingRun) Degraded() bool { return r.Degradation.Degraded() }

// SampleStreaming executes the streaming MEGsim flow over a trace
// replayed as a frame stream: frames are characterized and folded into
// the online stratifier one at a time — the full N × D matrix is never
// built — then the finalized strata's representatives are simulated
// under the resilient supervisor and extrapolated by stratum weight.
// Memory stays O(strata · reservoir) regardless of trace length.
//
// With Resilience.CheckpointPath set the campaign is killable anywhere:
// ingest checkpoints the strata snapshot every CheckpointEvery frames,
// phase 2 checkpoints per completed frame (with the snapshot preserved
// in the same envelope), and a Resume re-run finishes with stats,
// report and checkpoint bytes identical to an uninterrupted run.
func SampleStreaming(ctx context.Context, tr *Trace, opts StreamingOptions, gpu GPUConfig) (*StreamingRun, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	streamer, err := funcsim.NewStreamer(tr)
	if err != nil {
		return nil, fmt.Errorf("megsim: streaming characterization: %w", err)
	}
	vs, fs := streamer.Static()
	ing := stream.NewIngestor(tr.Name, vs, fs, opts.Stream)

	rcfg := opts.Resilience
	if rcfg.Fingerprint == "" {
		rcfg.Fingerprint = RunFingerprint(tr, gpu)
	}
	if rcfg.Obs == nil {
		rcfg.Obs = gpu.Obs
	}
	hasCk := rcfg.CheckpointPath != ""
	every := opts.CheckpointEvery
	if every == 0 {
		every = DefaultStreamCheckpointEvery
	}
	runner := opts.Runner
	if runner == nil {
		runner = FrameRunner(tr, gpu)
	}
	numFrames := tr.NumFrames()
	if opts.MaxFrames > 0 && opts.MaxFrames < numFrames {
		numFrames = opts.MaxFrames
	}

	run := &StreamingRun{Trace: tr, Supervision: &ResilienceResult{CheckpointPath: rcfg.CheckpointPath}}

	// Resume: restore the strata snapshot from the checkpoint and skip
	// the frames it already ingested. Failure of any kind falls back to
	// re-ingesting from frame zero — characterization is deterministic,
	// so the rebuilt strata are identical, just slower to reach.
	base := &resilience.Checkpoint{Fingerprint: rcfg.Fingerprint}
	if hasCk && rcfg.Resume {
		ck, lerr := resilience.LoadCheckpoint(rcfg.CheckpointPath, rcfg.Fingerprint)
		switch {
		case lerr != nil:
			run.StreamResumeErr = lerr
		case ck == nil:
			// nothing to resume
		case len(ck.Stream) == 0:
			base = ck // batch-era records; stream state starts fresh
		default:
			if rerr := ing.Restore(ck.Stream); rerr != nil {
				run.StreamResumeErr = rerr
				base = ck
			} else if ing.Frames() > numFrames {
				return nil, fmt.Errorf("megsim: strata snapshot has %d frames, stream has %d", ing.Frames(), numFrames)
			} else {
				run.ResumedFrames = ing.Frames()
				base = ck
			}
		}
	}
	// A caller-provided snapshot seeds the ingestor only when the
	// checkpoint didn't already restore strata state (the checkpoint is
	// never behind: every rewrite carries the latest snapshot).
	if len(opts.Snapshot) > 0 && ing.Frames() == 0 && ing.NumStrata() == 0 {
		if rerr := ing.Restore(opts.Snapshot); rerr != nil {
			run.StreamResumeErr = rerr
		} else if ing.Frames() > numFrames {
			return nil, fmt.Errorf("megsim: strata snapshot has %d frames, stream has %d", ing.Frames(), numFrames)
		} else {
			run.ResumedFrames = ing.Frames()
		}
	}

	// saveIngest rewrites the checkpoint with the current strata
	// snapshot while preserving every completed frame record.
	saveIngest := func() error {
		if !hasCk {
			return nil
		}
		snap, serr := ing.Snapshot()
		if serr != nil {
			return fmt.Errorf("megsim: strata snapshot: %w", serr)
		}
		base.Stream = snap
		if serr := resilience.SaveCheckpoint(rcfg.CheckpointPath, base); serr != nil {
			return serr
		}
		return nil
	}
	// reloadBase re-adopts the checkpoint after a supervisor round so
	// later ingest-time rewrites keep the round's frame records.
	reloadBase := func() {
		if !hasCk {
			return
		}
		if ck, lerr := resilience.LoadCheckpoint(rcfg.CheckpointPath, rcfg.Fingerprint); lerr == nil && ck != nil {
			base = ck
		}
	}

	if err := saveIngest(); err != nil {
		return run, err
	}

	repStats := map[int]FrameStats{}
	quarantined := map[int]bool{}
	for _, f := range rcfg.Quarantine {
		quarantined[f] = true
	}

	// superviseRound runs one phase-2 supervisor pass over todo frames.
	// The current strata snapshot rides in Config.StreamState so every
	// per-frame checkpoint rewrite keeps phase 1 resumable.
	superviseRound := func(todo []int, parent *ObsRegistry) (*ResilienceResult, error) {
		roundCfg := rcfg
		roundCfg.Quarantine = nil
		roundCfg.Resume = hasCk
		roundCfg.Obs = parent
		if hasCk {
			snap, serr := ing.Snapshot()
			if serr != nil {
				return nil, fmt.Errorf("megsim: strata snapshot: %w", serr)
			}
			roundCfg.StreamState = snap
		}
		r, rerr := resilience.Run(ctx, todo, runner, roundCfg)
		if r != nil {
			for f, st := range r.Stats {
				repStats[f] = st
			}
			for _, q := range r.Quarantined {
				quarantined[q.Frame] = true
			}
			reloadBase()
		}
		return r, rerr
	}

	// Phase 1: ingest the stream, checkpointing strata state and — in
	// eager mode — launching representative simulations as they settle.
	// Frames are characterized a window at a time across GOMAXPROCS
	// workers, then ingested one by one in frame order. A window ends on
	// every checkpoint and eager boundary, so ingest state, checkpoint
	// bytes and eager rounds are exactly those of a frame-at-a-time
	// loop; a cancellation mid-window loses only that window's
	// characterization, never ingest progress.
	window := make([]funcsim.FrameProfile, min(streamWindow, numFrames))
	var pending []funcsim.FrameProfile // characterized, not yet ingested
	// cancelled checkpoints the ingest progress so far and reports why
	// ingest stopped.
	cancelled := func(cause error) (*StreamingRun, error) {
		if err := saveIngest(); err != nil {
			return run, err
		}
		return run, cause
	}
	for f := run.ResumedFrames; f < numFrames; f++ {
		if err := ctx.Err(); err != nil {
			return cancelled(err)
		}
		if len(pending) == 0 {
			end := min(numFrames, f+len(window))
			if hasCk && every > 0 {
				end = min(end, (f/every+1)*every)
			}
			if opts.EagerEvery > 0 {
				end = min(end, (f/opts.EagerEvery+1)*opts.EagerEvery)
			}
			pending = window[:end-f]
			if err := streamer.ProfileRange(ctx, pending, f); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return cancelled(cerr)
				}
				return run, fmt.Errorf("megsim: streaming characterization: %w", err)
			}
		}
		prof := &pending[0]
		pending = pending[1:]
		if err := ing.Add(prof); err != nil {
			return run, fmt.Errorf("megsim: frame %d: %w", f, err)
		}
		if hasCk && every > 0 && (f+1)%every == 0 {
			if err := saveIngest(); err != nil {
				return run, err
			}
		}
		if opts.EagerEvery > 0 && (f+1)%opts.EagerEvery == 0 && f+1 < numFrames {
			sel, serr := ing.Finalize()
			if serr != nil {
				return run, serr
			}
			var todo []int
			for _, fr := range sel.Plan(quarantined) {
				if fr >= 0 {
					if _, done := repStats[fr]; !done {
						todo = append(todo, fr)
					}
				}
			}
			if len(todo) > 0 {
				// Eager observability goes to a discardable twin of the
				// real registry when checkpointing: the per-frame deltas
				// persist in the records and merge into the real registry
				// exactly once, during the final phase — identically in
				// interrupted and uninterrupted runs. Without a checkpoint
				// there is no adoption path, so merge directly.
				parent := rcfg.Obs
				if hasCk {
					parent = rcfg.Obs.NewLocal()
				}
				r, rerr := superviseRound(todo, parent)
				if r != nil && !hasCk {
					mergeSupervision(run.Supervision, r, false)
				}
				if rerr != nil {
					return run, rerr
				}
			}
		}
	}
	if ing.Frames() == 0 {
		return run, fmt.Errorf("megsim: empty trace, nothing to stream")
	}
	if err := saveIngest(); err != nil {
		return run, err
	}

	sel, err := ing.Finalize()
	if err != nil {
		return run, err
	}
	run.Selection = sel

	// Phase 2 fixed point, mirroring SampleResilientPrepared: simulate
	// the plan; every fresh quarantine re-plans with the next alternate
	// on the stratum's ladder; terminates because each round either
	// quarantines a new frame or requests nothing.
	requested := map[int]bool{}
	for round := 0; ; round++ {
		plan := sel.Plan(quarantined)
		var todo []int
		for _, f := range plan {
			if f < 0 || requested[f] {
				continue
			}
			if !hasCk {
				// Without a checkpoint there is no record adoption:
				// skip frames already simulated eagerly (their obs was
				// merged directly when they ran).
				if _, done := repStats[f]; done {
					continue
				}
			}
			requested[f] = true
			todo = append(todo, f)
		}
		if len(todo) == 0 {
			break
		}
		r, rerr := superviseRound(todo, rcfg.Obs)
		if r != nil {
			mergeSupervision(run.Supervision, r, round == 0)
		}
		if rerr != nil {
			return run, rerr
		}
	}

	est, deg, err := sel.EstimateWith(sel.Plan(quarantined), repStats)
	if err != nil {
		return run, fmt.Errorf("megsim: streaming estimation: %w", err)
	}
	run.RepresentativeStats = repStats
	run.Estimate = est
	if deg.Degraded() {
		run.Degradation = deg
	}
	return run, nil
}
