package resilience

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/tbr"
)

// runState is the supervisor's shared mutable state: completed frame
// records, quarantine, and the checkpoint writer. One mutex guards it
// all — the simulator dominates runtime, so contention here is noise.
type runState struct {
	mu          sync.Mutex
	cfg         *Config
	records     map[int]FrameRecord
	quarantined []QuarantineRecord
	retried     int
	requeued    int
	saveErr     error
}

// requeue counts one worker-loss requeue (no checkpoint rewrite — no
// frame state changed, the frame just re-enters the pool).
func (s *runState) requeue() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requeued++
}

// record stores a completed frame and rewrites the checkpoint.
func (s *runState) record(r FrameRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records[r.Frame] = r
	if r.Attempts > 1 {
		s.retried++
	}
	s.persistLocked()
}

// quarantine registers a given-up frame and rewrites the checkpoint.
func (s *runState) quarantine(q QuarantineRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarantined = append(s.quarantined, q)
	s.persistLocked()
}

// persistLocked rewrites the checkpoint file (atomic fsynced
// tmp+rename). The first write/sync error degrades the run to
// continue-without-checkpoint: it is kept for Result.CheckpointErr,
// logged, counted, and checkpointing stops — later frames keep
// simulating without re-attempting a disk that just failed. Losing
// checkpoint durability must not abort the science.
func (s *runState) persistLocked() {
	if s.cfg.CheckpointPath == "" || s.saveErr != nil {
		return
	}
	if err := SaveCheckpoint(s.cfg.CheckpointPath, s.checkpointLocked()); err != nil {
		s.saveErr = err
		logf(s.cfg.Log, "resilience: checkpoint write failed (run continues unprotected): %v", err)
		if s.cfg.Obs.Enabled() {
			s.cfg.Obs.Counter("resilience.checkpoint_write_failed").Inc()
		}
	}
}

func (s *runState) checkpointLocked() *Checkpoint {
	c := &Checkpoint{Fingerprint: s.cfg.Fingerprint, Stream: s.cfg.StreamState}
	for _, r := range s.records {
		c.Frames = append(c.Frames, r)
	}
	c.Quarantined = append(c.Quarantined, s.quarantined...)
	c.sortFrames()
	return c
}

// watchdog flags workers that hold one frame past StallTimeout. It
// observes per-worker heartbeats (attempt-start timestamps the workers
// publish) and never interrupts anyone: the simulator has no safe
// preemption point, so the job is visibility — a log line, an obs
// counter, and the worker id in the result.
type watchdog struct {
	timeout time.Duration
	now     func() time.Time
	// busySince[w] is the unix-nano attempt start of worker w's current
	// frame (0 = idle); busyFrame[w] the frame it holds.
	busySince []atomic.Int64
	busyFrame []atomic.Int64

	mu      sync.Mutex
	flagged map[int]bool
}

func newWatchdog(workers int, timeout time.Duration, now func() time.Time) *watchdog {
	return &watchdog{
		timeout:   timeout,
		now:       now,
		busySince: make([]atomic.Int64, workers),
		busyFrame: make([]atomic.Int64, workers),
		flagged:   map[int]bool{},
	}
}

// beat publishes worker w's heartbeat: busy on a frame (attempt start)
// or idle (frame < 0).
func (d *watchdog) beat(w, frame int) {
	if d == nil {
		return
	}
	d.busyFrame[w].Store(int64(frame))
	if frame < 0 {
		d.busySince[w].Store(0)
	} else {
		d.busySince[w].Store(d.now().UnixNano())
	}
}

// scan flags every worker stalled past the timeout; returns newly
// flagged (worker, frame) pairs.
func (d *watchdog) scan() [][2]int {
	now := d.now().UnixNano()
	var fresh [][2]int
	d.mu.Lock()
	defer d.mu.Unlock()
	for w := range d.busySince {
		since := d.busySince[w].Load()
		if since == 0 || now-since < int64(d.timeout) {
			continue
		}
		if !d.flagged[w] {
			d.flagged[w] = true
			fresh = append(fresh, [2]int{w, int(d.busyFrame[w].Load())})
		}
	}
	return fresh
}

func (d *watchdog) stalled() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, 0, len(d.flagged))
	for w := range d.flagged {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Run supervises the simulation of the given frames (duplicates are
// collapsed): a pool of workers claims frames, each attempt runs under
// a recover, failed attempts retry with capped exponential backoff and
// deterministic jitter, frames that exhaust Config.MaxAttempts are
// quarantined instead of aborting the pool, and every completion
// rewrites the checkpoint atomically. Cancelling ctx stops the pool at
// the next frame boundary, flushes a final checkpoint, and returns the
// partial Result alongside ctx's error.
//
// On success (err == nil) every non-quarantined frame is present in
// Result.Stats; the caller decides whether quarantine is acceptable.
func Run(ctx context.Context, frames []int, fn FrameFunc, cfg Config) (*Result, error) {
	for _, f := range frames {
		if f < 0 {
			return nil, fmt.Errorf("resilience: negative frame index %d", f)
		}
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	sleep := cfg.sleep
	if sleep == nil {
		sleep = sleepCtx
	}

	state := &runState{cfg: &cfg, records: map[int]FrameRecord{}}
	res := &Result{CheckpointPath: cfg.CheckpointPath}

	// Resume: adopt completed frames from a valid checkpoint; reject
	// damaged or mismatched files loudly and start fresh. Every
	// fingerprint-matching record is adopted (and re-persisted), even
	// ones outside the requested set, so successive supervised passes
	// over different frame subsets — the degradation loop resimulating
	// substitutes — extend one checkpoint instead of clobbering it;
	// the Result only reports the requested frames. Previously
	// quarantined frames are retried — simulation failures are
	// deterministic, so truly bad frames re-quarantine identically,
	// while transiently failed ones get a fresh chance.
	requested := dedupe(frames)
	want := map[int]bool{}
	for _, f := range requested {
		want[f] = true
	}
	if cfg.Resume && cfg.CheckpointPath != "" {
		ck, err := LoadCheckpoint(cfg.CheckpointPath, cfg.Fingerprint)
		switch {
		case err != nil:
			res.ResumeErr = err
			logf(cfg.Log, "resilience: resume rejected, starting fresh: %v", err)
		case ck != nil:
			if len(cfg.StreamState) == 0 && len(ck.Stream) > 0 {
				// Preserve phase-1 strata state across rewrites even when
				// this round wasn't handed a fresher snapshot; dropping it
				// would strand a later mid-stream resume.
				cfg.StreamState = ck.Stream
			}
			for _, r := range ck.Frames {
				state.records[r.Frame] = r
				if want[r.Frame] {
					res.Resumed = append(res.Resumed, r.Frame)
				}
			}
			sort.Ints(res.Resumed)
			logf(cfg.Log, "resilience: resumed %d/%d frames from %s", len(res.Resumed), len(requested), cfg.CheckpointPath)
		}
	}

	preQuarantined := map[int]bool{}
	for _, f := range cfg.Quarantine {
		preQuarantined[f] = true
	}

	// Build the pending work list: requested frames not already
	// completed (resumed) and not pre-quarantined.
	var pending []int
	for _, f := range requested {
		if _, done := state.records[f]; done {
			continue
		}
		if preQuarantined[f] {
			state.quarantine(QuarantineRecord{Frame: f, Attempts: 0, Err: "pre-quarantined"})
			continue
		}
		pending = append(pending, f)
	}

	workers := pool.Workers(cfg.Workers, len(pending))
	var dog *watchdog
	dogDone := make(chan struct{})
	if cfg.StallTimeout > 0 && workers > 0 {
		dog = newWatchdog(workers, cfg.StallTimeout, now)
		period := cfg.StallTimeout / 4
		if period < time.Millisecond {
			period = time.Millisecond
		}
		go func() {
			t := time.NewTicker(period)
			defer t.Stop()
			for {
				select {
				case <-dogDone:
					return
				case <-t.C:
					for _, wf := range dog.scan() {
						logf(cfg.Log, "resilience: watchdog: worker %d stalled on frame %d for > %v", wf[0], wf[1], cfg.StallTimeout)
					}
				}
			}
		}()
	}

	// The shared claim pool stops claiming once ctx is cancelled, so a
	// cancelled run ends at a frame boundary. runAttempt recovers the
	// frame function's panics, so the pool fails only on a panic in the
	// supervisor's own loop, which Run then returns as its error.
	maxAttempts := cfg.maxAttempts()
	maxRequeues := cfg.maxRequeues()
	_, poolErr := pool.Claim(ctx, workers, len(pending), func(w int) (func(i int), error) {
		return func(i int) {
			frame := pending[i]
			attempt := 0
			requeues := 0
			for {
				attempt++
				dog.beat(w, frame)
				rec, err := runAttempt(ctx, fn, frame, attempt, cfg.Obs)
				dog.beat(w, -1)
				if err == nil {
					state.record(rec)
					return
				}
				if ctx.Err() != nil {
					return // cancelled: the frame stays incomplete, not quarantined
				}
				if IsWorkerLost(err) && requeues < maxRequeues {
					// Losing the worker is not the frame's fault: requeue
					// without charging an attempt, like quarantined work
					// re-entering the pool, bounded by MaxRequeues.
					requeues++
					attempt--
					state.requeue()
					d := backoff(cfg.BackoffBase, backoffCap, frame, requeues)
					logf(cfg.Log, "resilience: frame %d requeued after worker loss (%d/%d), retrying in %v: %v",
						frame, requeues, maxRequeues, d, err)
					if sleep(ctx, d) != nil {
						return
					}
					continue
				}
				if attempt >= maxAttempts {
					q := QuarantineRecord{Frame: frame, Attempts: attempt, Err: err.Error()}
					logf(cfg.Log, "resilience: %s", q)
					state.quarantine(q)
					return
				}
				d := backoff(cfg.BackoffBase, backoffCap, frame, attempt)
				logf(cfg.Log, "resilience: frame %d attempt %d failed (%v), retrying in %v", frame, attempt, err, d)
				if sleep(ctx, d) != nil {
					return
				}
			}
		}, nil
	})
	close(dogDone)

	// Final flush: even a run that completed nothing (or was cancelled
	// between per-frame writes) leaves a valid checkpoint behind, so
	// SIGTERM-then-resume always has a file to pick up.
	state.mu.Lock()
	state.persistLocked()
	completed := state.checkpointLocked()
	saveErr := state.saveErr
	retried := state.retried
	requeued := state.requeued
	state.mu.Unlock()

	// Deterministic observability fold: the requested frames' deltas
	// merge into the parent in ascending frame order. Counters and
	// histograms are additive and snapshot events sort canonically, so
	// the merged snapshot is identical however the frames were
	// scheduled, retried, or split across killed-and-resumed processes.
	// Adopted records outside the requested set stay checkpoint-only.
	res.Stats = make(map[int]tbr.FrameStats)
	for _, r := range completed.Frames {
		if !want[r.Frame] {
			continue
		}
		res.Stats[r.Frame] = r.Stats
		cfg.Obs.MergeSnapshot(r.Obs)
	}
	if cfg.Obs.Enabled() {
		cfg.Obs.Counter("resilience.frames_ok").Add(uint64(len(res.Stats)))
		cfg.Obs.Counter("resilience.frames_quarantined").Add(uint64(len(completed.Quarantined)))
	}
	res.Quarantined = completed.Quarantined
	res.Retried = retried
	res.Requeued = requeued
	if dog != nil {
		res.StalledWorkers = dog.stalled()
	}

	res.CheckpointErr = saveErr

	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, poolErr
}

// runAttempt executes one attempt of one frame with a fresh worker-
// local obs registry, converting panics into errors. The local registry
// of a failed attempt is discarded — retried frames contribute exactly
// one delta, so retries never skew the merged observability.
func runAttempt(ctx context.Context, fn FrameFunc, frame, attempt int, parent *obs.Registry) (rec FrameRecord, err error) {
	local := parent.NewLocal()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("resilience: frame %d panicked: %v", frame, r)
		}
	}()
	st, err := fn(ctx, frame, local)
	if err != nil {
		return FrameRecord{}, err
	}
	rec = FrameRecord{Frame: frame, Attempts: attempt, Stats: st}
	if parent.Enabled() {
		rec.Obs = local.Snapshot()
	}
	return rec, nil
}

// dedupe collapses duplicate frames preserving first-seen order.
func dedupe(frames []int) []int {
	seen := make(map[int]bool, len(frames))
	out := make([]int, 0, len(frames))
	for _, f := range frames {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}
