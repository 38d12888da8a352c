package resilience

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/internal/workload"
)

// TestGoldenKillAndResume is the headline guarantee: a supervised run
// killed at a frame boundary and resumed from its checkpoint produces
// byte-identical frame statistics, a byte-identical final checkpoint
// file, and an identical merged observability snapshot to an
// uninterrupted run — at supervisor worker counts 1, 2 and 4, each
// with its own kill point, under injected microarchitectural faults
// (tbr.FaultConfig stalls and dropped tiles) and deterministic
// first-attempt panics, with the supervisor worker count varied
// between the killed and resumed halves.
func TestGoldenKillAndResume(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["bbr1"], workload.TestScale)
	frames := make([]int, 0, 12)
	for f := 0; f < tr.NumFrames() && f < 12; f++ {
		frames = append(frames, f)
	}
	if len(frames) < 6 {
		t.Fatalf("trace too short for the golden test: %d frames", len(frames))
	}

	// Deterministic fault injection: stalled shader cores and dropped
	// tiles, keyed by (seed, frame, tile) — identical however the frames
	// are scheduled.
	gpu := tbr.DefaultConfig()
	gpu.Faults = tbr.FaultConfig{Seed: 7, StallRate: 0.05, StallCycles: 64, DropTileRate: 0.02}

	// mkFn simulates one frame on its own simulator instance, recording
	// into the supervisor's per-frame registry. When flaky, every frame
	// congruent to 1 mod 4 panics on its first attempt — retried runs
	// must still be byte-identical.
	mkFn := func(gpu tbr.Config, flaky *attemptTracker) FrameFunc {
		return func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
			if flaky != nil && frame%4 == 1 && flaky.next(frame) == 1 {
				panic("injected first-attempt panic")
			}
			g := gpu
			g.Obs = reg
			sim, err := tbr.New(g, tr)
			if err != nil {
				return tbr.FrameStats{}, err
			}
			return sim.SimulateFrame(frame), nil
		}
	}

	type golden struct {
		stats map[int]tbr.FrameStats
		snap  *obs.Snapshot
	}
	var crossWorkers *golden

	for i, workers := range []int{1, 2, 4} {
		dir := t.TempDir()
		fp := "golden-fp"

		// Uninterrupted reference run.
		refPath := filepath.Join(dir, "ref.ckpt")
		refObs := obs.New()
		refCfg := noBackoff(Config{Workers: workers, Obs: refObs, CheckpointPath: refPath, Fingerprint: fp, Seed: 1})
		refRes, err := Run(context.Background(), frames, mkFn(gpu, newAttemptTracker()), refCfg)
		if err != nil {
			t.Fatalf("workers=%d: reference run: %v", workers, err)
		}
		if len(refRes.Stats) != len(frames) {
			t.Fatalf("workers=%d: reference incomplete: %d frames", workers, len(refRes.Stats))
		}
		refSnap := refObs.Snapshot()
		refBytes, err := os.ReadFile(refPath)
		if err != nil {
			t.Fatal(err)
		}

		// Killed run: cancel after a worker-count-dependent number of
		// completed frames — a different "random" kill boundary per
		// configuration.
		killAfter := int64(3 + 2*i)
		killPath := filepath.Join(dir, "killed.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		var completions atomic.Int64
		killObs := obs.New()
		killCfg := noBackoff(Config{Workers: workers, Obs: killObs, CheckpointPath: killPath, Fingerprint: fp, Seed: 1})
		inner := mkFn(gpu, newAttemptTracker())
		_, err = Run(ctx, frames, func(c context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
			st, err := inner(c, frame, reg)
			if err == nil && completions.Add(1) >= killAfter {
				cancel()
			}
			return st, err
		}, killCfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: killed run: err = %v, want context.Canceled", workers, err)
		}

		// Resume under a different supervisor worker count.
		resObs := obs.New()
		resCfg := noBackoff(Config{Workers: 3, Obs: resObs, CheckpointPath: killPath, Fingerprint: fp, Seed: 1, Resume: true})
		resRes, err := Run(context.Background(), frames, mkFn(gpu, newAttemptTracker()), resCfg)
		if err != nil {
			t.Fatalf("workers=%d: resumed run: %v", workers, err)
		}
		if resRes.ResumeErr != nil {
			t.Fatalf("workers=%d: resumed run: ResumeErr = %v", workers, resRes.ResumeErr)
		}
		if len(resRes.Resumed) == 0 {
			t.Fatalf("workers=%d: resume adopted nothing (kill landed after completion?)", workers)
		}

		if !reflect.DeepEqual(resRes.Stats, refRes.Stats) {
			t.Fatalf("workers=%d: resumed stats differ from uninterrupted run", workers)
		}
		if snap := resObs.Snapshot(); !reflect.DeepEqual(snap, refSnap) {
			t.Fatalf("workers=%d: resumed obs snapshot differs from uninterrupted run", workers)
		}
		resBytes, err := os.ReadFile(killPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(resBytes) != string(refBytes) {
			t.Fatalf("workers=%d: final checkpoint bytes differ between killed+resumed and uninterrupted runs", workers)
		}

		// Worker invariance: every supervisor worker count produces the
		// same statistics and obs.
		if crossWorkers == nil {
			crossWorkers = &golden{stats: refRes.Stats, snap: refSnap}
		} else {
			if !reflect.DeepEqual(refRes.Stats, crossWorkers.stats) {
				t.Fatalf("workers=%d: stats differ from workers=1", workers)
			}
			if !reflect.DeepEqual(refSnap, crossWorkers.snap) {
				t.Fatalf("workers=%d: obs snapshot differs from workers=1", workers)
			}
		}
	}
}
