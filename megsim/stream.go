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
)

// DefaultStreamConfig returns the paper-faithful streaming settings.
func DefaultStreamConfig() StreamConfig { return stream.DefaultConfig() }

// StreamingOptions configures SampleStreaming.
type StreamingOptions struct {
	// Stream configures the online first phase (zero value = defaults).
	Stream StreamConfig
	// Resilience configures the phase-2 supervisor: retry, quarantine,
	// checkpointing. With CheckpointPath set, ingest progress (the
	// strata snapshot) checkpoints alongside simulated frames inside
	// the same CRC envelope, and Resume restarts mid-stream.
	Resilience ResilienceConfig
	// CheckpointEvery bounds how many ingested frames a crash can lose
	// (0 = DefaultStreamCheckpointEvery; negative = checkpoint only at
	// phase boundaries). Ignored without a CheckpointPath.
	CheckpointEvery int
	// Runner overrides the phase-2 frame function (nil = the in-process
	// simulator via FrameRunner). The campaign service wraps its
	// per-representative stats cache and remote dispatch here; the
	// function must honor FrameRunner's purity contract.
	Runner ResilientFrameFunc
	// MaxFrames truncates the stream to its first MaxFrames frames
	// (0 = the whole trace): the estimate then extrapolates over the
	// streamed prefix only.
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
	// RepresentativeStats maps each frame the final plan simulated (a
	// representative or its stand-in) -> stats.
	RepresentativeStats map[int]FrameStats
	// Estimate is the extrapolated full-stream statistics.
	Estimate FrameStats
	// Supervision aggregates the phase-2 supervisor outcomes (nil when
	// the run stopped before phase 2).
	Supervision *ResilienceResult
	// Degradation is non-nil when representatives were substituted or
	// strata lost; never silent.
	Degradation *Degradation
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

	run := &StreamingRun{Trace: tr}

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
		return resilience.SaveCheckpoint(rcfg.CheckpointPath, base)
	}
	if err := saveIngest(); err != nil {
		return run, err
	}

	// Phase 1: ingest the stream, checkpointing strata state. Frames
	// are characterized a window at a time across GOMAXPROCS workers,
	// then ingested one by one in frame order. A window ends on every
	// checkpoint boundary, so ingest state and checkpoint bytes are
	// exactly those of a frame-at-a-time loop; a cancellation
	// mid-window loses only that window's characterization, never
	// ingest progress.
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

	// Phase 2: the supervise-then-degrade fixed point batch campaigns
	// run, over the strata's substitution ladders. The strata snapshot
	// rides in StreamState so every per-frame checkpoint rewrite keeps
	// phase 1 resumable, and with a checkpoint the supervisor resumes
	// the file the ingest wrote.
	cfg := rcfg
	cfg.Resume = hasCk
	if hasCk {
		if cfg.StreamState, err = ing.Snapshot(); err != nil {
			return run, fmt.Errorf("megsim: strata snapshot: %w", err)
		}
	}
	deg, sup, err := settle(ctx, sel, runner, cfg)
	run.Supervision = sup
	if err != nil {
		return run, err
	}
	est, err := deg.Estimate(sup.Stats)
	if err != nil {
		return run, fmt.Errorf("megsim: streaming estimation: %w", err)
	}
	run.RepresentativeStats = sup.Stats
	run.Estimate = est
	if deg.Degraded() {
		run.Degradation = deg
	}
	return run, nil
}
