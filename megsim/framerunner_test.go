package megsim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/tbr"
)

// frameResult is one simulated frame as a caller sees it: the stats and
// the serialized obs delta (metrics and spans).
type frameResult struct {
	stats FrameStats
	obs   string
}

// snapshotBytes serializes reg's metrics and spans. It reports errors
// with t.Error, so concurrent callers may use it.
func snapshotBytes(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b bytes.Buffer
	snap := reg.Snapshot()
	if err := snap.WriteJSON(&b); err != nil {
		t.Error(err)
	}
	if err := snap.WriteChromeTrace(&b); err != nil {
		t.Error(err)
	}
	return b.String()
}

// reuseTrace is a short hcr sequence: enough frames for reuse to matter,
// small enough to simulate every frame under several configurations.
func reuseTrace() *Trace {
	return MustGenerateBenchmark("hcr", Scale{Width: 128, Height: 64, FrameDivisor: 40, DetailDivisor: 2})
}

// freshFrame simulates frame f on a simulator built for it alone: the
// reference a reused simulator must match.
func freshFrame(t *testing.T, tr *Trace, gpu GPUConfig, f int) frameResult {
	t.Helper()
	reg := obs.New()
	g := gpu
	g.Obs = reg
	sim, err := NewSimulator(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.SimulateFrame(f)
	return frameResult{st, snapshotBytes(t, reg)}
}

// failOn is a checker that rejects one frame, so its attempt panics out
// of SimulateFrame after the frame ran to completion.
type failOn struct{ frame int }

func (c failOn) CheckFrame(st *tbr.FrameStats) error {
	if st.Frame == c.frame {
		return fmt.Errorf("injected failure on frame %d", c.frame)
	}
	return nil
}

// reuseConfigs are the GPU configurations FrameRunner's reuse must be
// invisible under: both shading models, an armed invariant checker and
// fault injection.
func reuseConfigs(t *testing.T) map[string]GPUConfig {
	t.Helper()
	preset := func(name string) GPUConfig {
		g, err := GPUPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	checked := preset("mali450")
	checked.Check = check.NewInvariants(checked).Strict()
	faulty := preset("mali450")
	faulty.Faults = tbr.FaultConfig{
		Seed: 11, DRAMLatencyScale: 1.5, DropTileRate: 0.1, DuplicateTileRate: 0.1,
		CacheFlushRate: 0.2, StallRate: 0.2, StallCycles: 40,
	}
	return map[string]GPUConfig{
		"mali450": preset("mali450"),
		"tbdr":    preset("tbdr"),
		"checked": checked,
		"faults":  faulty,
	}
}

// TestFrameRunnerReuseMatchesFresh: concurrent callers push a shuffled
// frame list with duplicates through one FrameRunner; every frame's
// stats and obs delta must be byte-identical to a fresh simulator's,
// and the free list never holds more simulators than callers.
func TestFrameRunnerReuseMatchesFresh(t *testing.T) {
	tr := reuseTrace()
	n := tr.NumFrames()
	var frames []int
	for f := 0; f < n; f++ {
		frames = append(frames, f, f)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })

	const callers = 3
	for name, gpu := range reuseConfigs(t) {
		t.Run(name, func(t *testing.T) {
			want := make([]frameResult, n)
			for f := range want {
				want[f] = freshFrame(t, tr, gpu, f)
			}
			pool := &simPool{tr: tr, gpu: gpu}
			got := make([]frameResult, len(frames))
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < len(frames); i += callers {
						reg := obs.New()
						st, err := pool.run(context.Background(), frames[i], reg)
						if err != nil {
							t.Error(err)
							return
						}
						got[i] = frameResult{st, snapshotBytes(t, reg)}
					}
				}(c)
			}
			wg.Wait()
			for i, f := range frames {
				if got[i] != want[f] {
					t.Fatalf("frame %d (call %d): reused simulator differs from a fresh one:\n got %+v\nwant %+v", f, i, got[i].stats, want[f].stats)
				}
			}
			if len(pool.idle) == 0 || len(pool.idle) > callers {
				t.Fatalf("%d idle simulators after %d concurrent callers", len(pool.idle), callers)
			}
		})
	}
}

// TestFrameRunnerDropsPanickedSimulator: a simulator whose frame
// panicked never returns to the free list, and the frames after it
// still match fresh simulators.
func TestFrameRunnerDropsPanickedSimulator(t *testing.T) {
	tr := reuseTrace()
	gpu := DefaultGPUConfig()
	gpu.Check = failOn{frame: 2}
	pool := &simPool{tr: tr, gpu: gpu}
	run := func(f int) (res frameResult, panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		reg := obs.New()
		st, err := pool.run(context.Background(), f, reg)
		if err != nil {
			t.Fatal(err)
		}
		return frameResult{st, snapshotBytes(t, reg)}, false
	}
	if _, panicked := run(1); panicked {
		t.Fatal("frame 1 panicked")
	}
	if _, panicked := run(2); !panicked {
		t.Fatal("frame 2 did not panic")
	}
	if len(pool.idle) != 0 {
		t.Fatalf("panicked simulator went back to the free list (%d idle)", len(pool.idle))
	}
	for _, f := range []int{3, 0, 1} {
		got, panicked := run(f)
		if panicked {
			t.Fatalf("frame %d panicked", f)
		}
		if want := freshFrame(t, tr, gpu, f); got != want {
			t.Fatalf("frame %d after a panicked attempt differs from a fresh simulator:\n got %+v\nwant %+v", f, got.stats, want.stats)
		}
	}
}

// TestFrameRunnerWarmModeBuildsFresh: without FlushCachesPerFrame a
// frame's result depends on what ran before it, so the runner keeps no
// simulator and each frame matches a fresh simulator's first frame —
// not the warm continuation of the previous call.
func TestFrameRunnerWarmModeBuildsFresh(t *testing.T) {
	tr := reuseTrace()
	gpu := DefaultGPUConfig()
	gpu.FlushCachesPerFrame = false
	pool := &simPool{tr: tr, gpu: gpu}

	warm, err := NewSimulator(gpu, tr)
	if err != nil {
		t.Fatal(err)
	}
	warm.SimulateFrame(0)
	continued := warm.SimulateFrame(1)
	if continued == freshFrame(t, tr, gpu, 1).stats {
		t.Fatal("warm continuation equals a cold frame; the test cannot tell reuse from rebuild")
	}
	for _, f := range []int{0, 1, 1} {
		reg := obs.New()
		st, err := pool.run(context.Background(), f, reg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := (frameResult{st, snapshotBytes(t, reg)}), freshFrame(t, tr, gpu, f); got != want {
			t.Fatalf("warm-mode frame %d differs from a fresh simulator:\n got %+v\nwant %+v", f, got.stats, want.stats)
		}
		if len(pool.idle) != 0 {
			t.Fatalf("warm mode kept %d idle simulators", len(pool.idle))
		}
	}
}

// TestFrameRunnerIdleCap: more concurrent callers than GOMAXPROCS leave
// at most GOMAXPROCS idle simulators, and a simulator the full list
// dropped does not change the frames that follow.
func TestFrameRunnerIdleCap(t *testing.T) {
	const procs, callers = 2, 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	tr := reuseTrace()
	gpu := DefaultGPUConfig()
	pool := &simPool{tr: tr, gpu: gpu}
	var held []*Simulator
	for c := 0; c < callers; c++ {
		sim, err := pool.get(obs.New())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, sim)
	}
	for _, sim := range held {
		pool.put(sim)
	}
	if len(pool.idle) != procs {
		t.Fatalf("%d idle simulators after %d concurrent callers, want the cap %d", len(pool.idle), callers, procs)
	}
	for _, f := range []int{3, 1} {
		reg := obs.New()
		st, err := pool.run(context.Background(), f, reg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := (frameResult{st, snapshotBytes(t, reg)}), freshFrame(t, tr, gpu, f); got != want {
			t.Fatalf("frame %d differs from a fresh simulator:\n got %+v\nwant %+v", f, got.stats, want.stats)
		}
	}
	if len(pool.idle) > procs {
		t.Fatalf("%d idle simulators, cap %d", len(pool.idle), procs)
	}
}
