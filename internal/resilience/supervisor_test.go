package resilience

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/internal/tbr/mem"
)

// synthStats is the deterministic per-frame "simulation" the supervisor
// tests run: cheap, pure, and distinct per frame.
func synthStats(frame int) tbr.FrameStats {
	return tbr.FrameStats{
		Frame:  frame,
		Cycles: uint64(frame)*100 + 7,
		DRAM:   mem.DRAMStats{Accesses: uint64(frame+1) * 10},
	}
}

// attemptTracker counts attempts per frame so FrameFuncs can fail the
// first k attempts deterministically.
type attemptTracker struct {
	mu sync.Mutex
	n  map[int]int
}

func newAttemptTracker() *attemptTracker { return &attemptTracker{n: map[int]int{}} }

func (a *attemptTracker) next(frame int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n[frame]++
	return a.n[frame]
}

func (a *attemptTracker) count(frame int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n[frame]
}

func (a *attemptTracker) total() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := 0
	for _, c := range a.n {
		t += c
	}
	return t
}

func noBackoff(cfg Config) Config {
	cfg.BackoffBase = -1
	return cfg
}

func TestRunRetriesAndQuarantines(t *testing.T) {
	tr := newAttemptTracker()
	fn := func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		attempt := tr.next(frame)
		switch {
		case frame == 2:
			return tbr.FrameStats{}, fmt.Errorf("frame 2 always fails")
		case frame == 4:
			panic("frame 4 always panics")
		case frame == 3 && attempt < 3:
			return tbr.FrameStats{}, fmt.Errorf("flaky, attempt %d", attempt)
		}
		return synthStats(frame), nil
	}
	res, err := Run(context.Background(), []int{0, 1, 2, 3, 4, 5}, fn, noBackoff(Config{Workers: 2, MaxAttempts: 3}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range []int{0, 1, 3, 5} {
		if st, ok := res.Stats[f]; !ok || st != synthStats(f) {
			t.Fatalf("frame %d: stats missing or wrong: %+v", f, st)
		}
	}
	if q := res.Quarantined; len(q) != 2 || q[0].Frame != 2 || q[1].Frame != 4 {
		t.Fatalf("quarantined %+v, want frames [2 4]", q)
	}
	for _, q := range res.Quarantined {
		if q.Attempts != 3 {
			t.Fatalf("frame %d quarantined after %d attempts, want 3", q.Frame, q.Attempts)
		}
		if q.Err == "" {
			t.Fatalf("frame %d quarantine has empty error", q.Frame)
		}
	}
	if res.Retried != 1 {
		t.Fatalf("Retried = %d, want 1 (only frame 3 succeeded after retries)", res.Retried)
	}
	if tr.count(3) != 3 {
		t.Fatalf("frame 3 attempted %d times, want 3", tr.count(3))
	}
}

func TestRunKillAndResume(t *testing.T) {
	frames := []int{0, 1, 2, 3, 4, 5, 6, 7}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := noBackoff(Config{Workers: 1, CheckpointPath: path, Fingerprint: "fp-kill"})

	// Uninterrupted reference run.
	want, err := Run(context.Background(), frames, func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		return synthStats(frame), nil
	}, noBackoff(Config{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}

	// Kill: cancel the context after 3 completed frames. Workers stop at
	// the next frame boundary; the checkpoint keeps what completed.
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	res1, err := Run(ctx, frames, func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		if done.Add(1) >= 3 {
			cancel()
		}
		return synthStats(frame), nil
	}, cfg)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: err = %v, want context.Canceled", err)
	}
	if len(res1.Stats) == 0 || len(res1.Stats) == len(frames) {
		t.Fatalf("killed run completed %d frames; want a strict partial", len(res1.Stats))
	}

	// Resume: only the missing frames are simulated.
	tr := newAttemptTracker()
	rcfg := cfg
	rcfg.Resume = true
	res2, err := Run(context.Background(), frames, func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		tr.next(frame)
		return synthStats(frame), nil
	}, rcfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res2.ResumeErr != nil {
		t.Fatalf("resumed run: ResumeErr = %v", res2.ResumeErr)
	}
	var adopted []int
	for f := range res1.Stats {
		adopted = append(adopted, f)
		if tr.count(f) != 0 {
			t.Fatalf("frame %d was re-simulated despite being checkpointed", f)
		}
	}
	sort.Ints(adopted)
	if !reflect.DeepEqual(res2.Resumed, adopted) {
		t.Fatalf("Resumed = %v, want %v", res2.Resumed, adopted)
	}
	if !reflect.DeepEqual(res2.Stats, want.Stats) {
		t.Fatalf("resumed stats differ from uninterrupted run:\n got %+v\nwant %+v", res2.Stats, want.Stats)
	}
}

func TestRunResumeRejectsDamagedCheckpoint(t *testing.T) {
	frames := []int{0, 1, 2}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr := newAttemptTracker()
	cfg := noBackoff(Config{Workers: 1, CheckpointPath: path, Fingerprint: "fp", Resume: true})
	res, err := Run(context.Background(), frames, func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		tr.next(frame)
		return synthStats(frame), nil
	}, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(res.ResumeErr, ErrCorrupt) {
		t.Fatalf("ResumeErr = %v, want ErrCorrupt", res.ResumeErr)
	}
	if tr.total() != len(frames) {
		t.Fatalf("fresh fallback simulated %d attempts, want %d", tr.total(), len(frames))
	}
	if len(res.Stats) != len(frames) {
		t.Fatalf("fresh fallback completed %d frames, want %d", len(res.Stats), len(frames))
	}
	// The damaged file has been replaced by a valid checkpoint.
	if _, err := LoadCheckpoint(path, "fp"); err != nil {
		t.Fatalf("checkpoint not repaired after fresh run: %v", err)
	}

	// A structurally valid checkpoint from a different configuration is
	// rejected with the fingerprint error.
	if err := SaveCheckpoint(path, &Checkpoint{Fingerprint: "other"}); err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), frames, func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		return synthStats(frame), nil
	}, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(res.ResumeErr, ErrFingerprint) {
		t.Fatalf("ResumeErr = %v, want ErrFingerprint", res.ResumeErr)
	}
}

func TestRunPreQuarantineAndDegenerates(t *testing.T) {
	tr := newAttemptTracker()
	fn := func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		tr.next(frame)
		return synthStats(frame), nil
	}
	res, err := Run(context.Background(), []int{0, 1, 1, 2}, fn, noBackoff(Config{Quarantine: []int{1}}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.count(1) != 0 {
		t.Fatal("pre-quarantined frame was attempted")
	}
	if q := res.Quarantined; len(q) != 1 || q[0].Frame != 1 {
		t.Fatalf("quarantined %+v, want frame [1]", q)
	}
	if res.Quarantined[0].Err != "pre-quarantined" || res.Quarantined[0].Attempts != 0 {
		t.Fatalf("pre-quarantine record wrong: %+v", res.Quarantined[0])
	}
	if len(res.Stats) != 2 {
		t.Fatalf("stats for %d frames, want 2 (duplicates collapse)", len(res.Stats))
	}

	// Empty frame list: an empty, valid run.
	res, err = Run(context.Background(), nil, fn, Config{})
	if err != nil || len(res.Stats) != 0 {
		t.Fatalf("empty run: (%v, %v)", res, err)
	}

	// Negative frames are a caller bug, not a resilience case.
	if _, err := Run(context.Background(), []int{-1}, fn, Config{}); err == nil {
		t.Fatal("negative frame accepted")
	}

	// A pre-cancelled context completes nothing but still returns a
	// result and a valid (empty) checkpoint.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = Run(ctx, []int{0, 1}, fn, noBackoff(Config{CheckpointPath: path, Fingerprint: "fp"}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v", err)
	}
	if len(res.Stats) != 0 {
		t.Fatalf("pre-cancelled run completed %d frames", len(res.Stats))
	}
	if _, err := LoadCheckpoint(path, "fp"); err != nil {
		t.Fatalf("pre-cancelled run left no valid checkpoint: %v", err)
	}
}

func TestRunCheckpointWriteFailureDegrades(t *testing.T) {
	reg := obs.New()
	cfg := noBackoff(Config{
		CheckpointPath: filepath.Join(t.TempDir(), "no-such-dir", "run.ckpt"),
		Obs:            reg,
	})
	res, err := Run(context.Background(), []int{0, 1}, func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		return synthStats(frame), nil
	}, cfg)
	// The run degrades to continue-without-checkpoint: it succeeds, and
	// the durability loss surfaces through Result.CheckpointErr plus the
	// obs counter — not as a run failure.
	if err != nil {
		t.Fatalf("checkpoint write failure aborted the run: %v", err)
	}
	if res.CheckpointErr == nil {
		t.Fatal("unwritable checkpoint path did not surface through CheckpointErr")
	}
	if len(res.Stats) != 2 {
		t.Fatalf("run degraded badly on checkpoint failure: %d frames", len(res.Stats))
	}
	if got := reg.Snapshot().Counters["resilience.checkpoint_write_failed"]; got != 1 {
		t.Fatalf("checkpoint_write_failed counter = %d, want 1 (first failure disables checkpointing)", got)
	}
}

func TestRunWatchdogFlagsStall(t *testing.T) {
	var stallOnce sync.Once
	fn := func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		if frame == 0 {
			stallOnce.Do(func() { time.Sleep(150 * time.Millisecond) })
		}
		return synthStats(frame), nil
	}
	res, err := Run(context.Background(), []int{0, 1, 2, 3}, fn, noBackoff(Config{Workers: 2, StallTimeout: 20 * time.Millisecond}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.StalledWorkers) == 0 {
		t.Fatal("watchdog did not flag the stalled worker")
	}
	if len(res.Stats) != 4 {
		t.Fatalf("stall flagging disturbed the run: %d frames", len(res.Stats))
	}
}

// TestSupervisorObsDeterministicAcrossWorkersAndRetries is the supervisor-level
// half of the byte-identical guarantee: the parent registry's snapshot
// is a pure function of the completed frame set — independent of worker
// count and of how many attempts each frame needed.
func TestSupervisorObsDeterministicAcrossWorkersAndRetries(t *testing.T) {
	frames := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	mkFn := func(tr *attemptTracker, flaky bool) FrameFunc {
		return func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
			attempt := tr.next(frame)
			if flaky && frame%3 == 0 && attempt == 1 {
				// Record into the registry BEFORE failing: the torn local
				// delta must be discarded, not merged.
				reg.Counter("torn.partial").Add(99)
				return tbr.FrameStats{}, fmt.Errorf("flaky first attempt")
			}
			reg.Counter("frame.visits").Add(1)
			reg.Counter(fmt.Sprintf("frame.%d.cycles", frame)).Add(synthStats(frame).Cycles)
			reg.Histogram("frame.cycles").Observe(synthStats(frame).Cycles)
			return synthStats(frame), nil
		}
	}

	var base *obs.Snapshot
	for _, tc := range []struct {
		workers int
		flaky   bool
	}{{1, false}, {4, false}, {1, true}, {4, true}, {16, true}} {
		parent := obs.New()
		res, err := Run(context.Background(), frames, mkFn(newAttemptTracker(), tc.flaky), noBackoff(Config{Workers: tc.workers, Obs: parent}))
		if err != nil {
			t.Fatalf("workers=%d flaky=%v: %v", tc.workers, tc.flaky, err)
		}
		if len(res.Stats) != len(frames) {
			t.Fatalf("workers=%d flaky=%v: %d frames", tc.workers, tc.flaky, len(res.Stats))
		}
		snap := parent.Snapshot()
		if base == nil {
			base = snap
			if snap.Counters["resilience.frames_ok"] != uint64(len(frames)) {
				t.Fatalf("frames_ok = %d", snap.Counters["resilience.frames_ok"])
			}
			if _, torn := snap.Counters["torn.partial"]; torn {
				t.Fatal("torn counter from a failed attempt leaked into the parent")
			}
			continue
		}
		if !reflect.DeepEqual(snap, base) {
			t.Fatalf("workers=%d flaky=%v: parent snapshot differs from baseline", tc.workers, tc.flaky)
		}
	}
}
