// Package resilience is the run supervisor that makes long sampled-
// simulation campaigns survivable: per-frame fault isolation with
// retry, capped exponential backoff and deterministic jitter;
// quarantine of frames that keep failing; frame-granularity
// checkpointing (atomic write-tmp-rename snapshots of completed frame
// stats plus observability deltas, CRC-checksummed) with resume; and a
// wall-clock watchdog that flags stalled workers through obs
// heartbeats. The supervisor only quarantines frames; what a
// quarantined representative means for the estimate is megsim's
// supervise-then-degrade loop, which re-plans the selection
// (core.Selection.Degrade or stream.Selection.Degrade), simulates the
// stand-ins in a further supervised round, and extrapolates through
// core.Degradation, reporting the degradation, never silently.
//
// The headline guarantee, golden-tested: kill a supervised run at any
// frame boundary (cancellation, SIGTERM, crash after a checkpoint
// write), resume it from the checkpoint, and the final frame statistics
// and merged observability snapshot are byte-identical to an
// uninterrupted run — at any worker count, and under injected faults
// (tbr.FaultConfig stalls and panicking invariant violations).
//
// Determinism model: frames are simulated under frame isolation
// (tbr.Config.FlushCachesPerFrame), so each frame's statistics and its
// per-frame obs delta are pure functions of the frame — independent of
// worker count, retry count (failed attempts record into a discarded
// local registry) and resume point. The supervisor merges per-frame
// deltas into the parent registry in ascending frame order at the end
// of the run, and obs snapshots sort canonically, so the merged
// snapshot is reproducible however the run was interleaved or split
// across processes.
package resilience

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/tbr"
)

// FrameFunc simulates one frame, recording observability into reg (nil
// when the supervisor's parent registry is disabled). Implementations
// must be pure per frame — same frame, same stats — which tbr frame
// isolation provides; the supervisor's byte-identical resume guarantee
// rests on it. A panic is treated exactly like an error return: the
// attempt failed and may be retried.
type FrameFunc func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error)

// Config configures a supervised run. The zero value is usable: a
// GOMAXPROCS-wide pool, defaultMaxAttempts per frame, default backoff,
// no checkpointing, no watchdog.
type Config struct {
	// Workers bounds the worker goroutines (0 = GOMAXPROCS). Never
	// affects results.
	Workers int

	// MaxAttempts is how many times a frame is tried before quarantine
	// (0 = defaultMaxAttempts; 1 = no retry).
	MaxAttempts int

	// MaxRequeues bounds how many times one frame may be requeued after
	// worker-loss failures (errors matching errWorkerLost) before such
	// failures start counting as ordinary attempts. A lost worker never
	// gave the frame a fair try, so requeues are free — this cap only
	// keeps a permanently dead fleet from looping forever.
	// 0 = defaultMaxRequeues; negative = no free requeues.
	MaxRequeues int

	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between attempts: attempt k sleeps ~Base*2^(k-1), jittered
	// deterministically from (Seed, frame, attempt), capped at Cap.
	// Zero values select defaultBackoffBase / defaultBackoffCap; a
	// negative BackoffBase disables backoff entirely (tests).
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// Seed drives the deterministic backoff jitter. Backoff timing
	// never affects results, only retry pacing.
	Seed uint64

	// CheckpointPath, when non-empty, enables frame-granularity
	// checkpointing: after every completed frame the full progress
	// snapshot is rewritten atomically (write-tmp-rename, CRC-guarded),
	// so a reader never observes a partial file and a crash loses at
	// most the in-flight frames.
	CheckpointPath string

	// Fingerprint identifies the run configuration (workload, GPU
	// config, frame set). A checkpoint whose fingerprint differs is
	// rejected on resume — resuming under a different configuration
	// would silently mix incompatible statistics.
	Fingerprint string

	// Resume, when true, loads CheckpointPath (if present and valid)
	// and skips its completed frames. A corrupt, truncated or
	// mismatched checkpoint is reported through Result.ResumeErr and
	// the run falls back to a fresh start — never a silent partial
	// trust of damaged state.
	Resume bool

	// StreamState, when non-empty, is carried verbatim into every
	// checkpoint the supervisor writes (Checkpoint.Stream): the
	// streaming sampler passes its strata snapshot here so phase-2
	// checkpoint rewrites preserve the phase-1 state inside the same
	// CRC envelope. Batch campaigns leave it empty, which keeps their
	// checkpoint bytes unchanged.
	StreamState []byte

	// Quarantine pre-quarantines frames: they are never attempted, as
	// if they had exhausted their retries. Operators use it to route
	// around known-bad frames; the degraded-mode tests use it to force
	// representative substitution deterministically.
	Quarantine []int

	// StallTimeout arms the watchdog: a worker that holds one frame
	// longer than this wall-clock span is flagged (Result.StalledWorkers
	// and a log line). Flagging never interrupts the worker — the
	// simulator has no safe preemption point — it makes the stall
	// visible. 0 disables.
	StallTimeout time.Duration

	// Obs, when enabled, receives every completed frame's
	// observability delta (merged in ascending frame order at run end)
	// plus the supervisor's kill-point-stable counters
	// resilience.frames_ok and resilience.frames_quarantined. Run-local
	// facts that would differ between an interrupted and an
	// uninterrupted run — retries, resumed frames, watchdog flags — are
	// reported through Result instead, preserving the byte-identical
	// resume guarantee on the registry.
	Obs *obs.Registry

	// Log, when non-nil, receives progress and warning lines.
	Log io.Writer

	// now and sleep are test seams; nil selects the real clock.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// Default retry/backoff parameters.
const (
	defaultMaxAttempts = 3
	defaultBackoffBase = 5 * time.Millisecond
	defaultBackoffCap  = 500 * time.Millisecond
)

func (c *Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return defaultMaxAttempts
	}
	return c.MaxAttempts
}

// backoff returns the jittered delay before retrying frame after
// `attempt` failed attempts (attempt >= 1): base*2^(attempt-1) scaled
// by a deterministic jitter factor in [0.5, 1.0] drawn from
// (seed, frame, attempt), capped. Deterministic jitter keeps retry
// schedules reproducible across runs — the same flaky frame backs off
// identically every time — while still decorrelating frames that fail
// together.
func backoff(base, cap time.Duration, seed uint64, frame, attempt int) time.Duration {
	if base < 0 {
		return 0
	}
	if base == 0 {
		base = defaultBackoffBase
	}
	if cap <= 0 {
		cap = defaultBackoffCap
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	// splitmix64 finalizer over the mixed coordinates, as the fault
	// layer does: jitter is a pure function of (seed, frame, attempt).
	x := seed ^ uint64(frame)*0x9E3779B97F4A7C15 ^ uint64(attempt)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	jitter := 0.5 + 0.5*float64(x>>11)/(1<<53) // [0.5, 1.0)
	return time.Duration(float64(d) * jitter)
}

// sleepCtx sleeps for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// QuarantineRecord describes one quarantined frame.
type QuarantineRecord struct {
	// Frame is the quarantined frame index.
	Frame int `json:"frame"`
	// Attempts is how many attempts were made (0 for pre-quarantined
	// frames from Config.Quarantine).
	Attempts int `json:"attempts"`
	// Err is the last attempt's error ("pre-quarantined" for frames
	// the configuration excluded).
	Err string `json:"err"`
}

func (q QuarantineRecord) String() string {
	return fmt.Sprintf("frame %d quarantined after %d attempts: %s", q.Frame, q.Attempts, q.Err)
}

// Result is the outcome of a supervised run. Even a cancelled run
// returns one, carrying whatever completed — the final checkpoint has
// already been flushed when Run returns.
type Result struct {
	// Stats maps frame -> statistics for every completed frame.
	Stats map[int]tbr.FrameStats
	// Quarantined lists the frames given up on, in ascending frame
	// order. The run as a whole still succeeds; callers decide whether
	// quarantine is tolerable (the MEGsim layer substitutes
	// representatives and reports degradation).
	Quarantined []QuarantineRecord
	// Retried counts frames that needed more than one attempt.
	Retried int
	// Requeued counts worker-loss requeues across the run: dispatches
	// that failed because the executing worker was lost and re-entered
	// the pool without charging the frame an attempt.
	Requeued int
	// Resumed lists the frames restored from the checkpoint instead of
	// simulated, in ascending order.
	Resumed []int
	// ResumeErr records why a requested resume fell back to a fresh
	// run (corrupt/truncated/mismatched checkpoint); nil on a clean
	// resume or when no resume was requested.
	ResumeErr error
	// StalledWorkers lists workers the watchdog flagged, ascending.
	StalledWorkers []int
	// CheckpointPath is the checkpoint file the run maintained ("" if
	// checkpointing was disabled).
	CheckpointPath string
	// CheckpointErr records the first checkpoint write/sync failure.
	// The run degrades to continue-without-checkpoint rather than
	// failing — losing durability must not abort the science — so this
	// is the caller's only signal that a crash would now lose progress.
	CheckpointErr error
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
