package tbr_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/gltrace"
	"repro/internal/tbr"
	"repro/internal/workload"
)

func TestParallelMatchesSequentialExactly(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	cfg := tbr.DefaultConfig()

	sim, err := tbr.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	sequential := sim.SimulateAll(nil)

	parallel, err := tbr.SimulateFrames(context.Background(), cfg, tr, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(sequential) {
		t.Fatalf("lengths differ: %d vs %d", len(parallel), len(sequential))
	}
	for i := range sequential {
		if sequential[i] != parallel[i] {
			t.Fatalf("frame %d differs between sequential and parallel runs", i)
		}
	}
}

func TestParallelSingleWorkerFallback(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})
	out, err := tbr.SimulateFrames(context.Background(), tbr.DefaultConfig(), tr, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != tr.NumFrames() {
		t.Fatalf("frames = %d", len(out))
	}
}

// failChecker rejects every frame, like a strict invariant checker
// that caught a violation.
type failChecker struct{}

func (failChecker) CheckFrame(*tbr.FrameStats) error { return errors.New("invariant violated") }

// sequentialFrames is the reference SimulateFrames must reproduce: one
// simulator stepping through frames in the given order.
func sequentialFrames(t *testing.T, cfg tbr.Config, tr *gltrace.Trace, frames []int) []tbr.FrameStats {
	t.Helper()
	sim, err := tbr.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]tbr.FrameStats, len(frames))
	for i, f := range frames {
		out[i] = sim.SimulateFrame(f)
	}
	return out
}

// TestSimulateFramesContract pins the frame driver's contract: which
// frames run, in which order the stats come back, when the frames may
// fan out, and what a failure returns.
func TestSimulateFramesContract(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})
	n := tr.NumFrames()
	if n < 3 {
		t.Fatalf("trace too short for the contract cases: %d frames", n)
	}
	warm := tbr.DefaultConfig()
	warm.FlushCachesPerFrame = false
	strict := tbr.DefaultConfig()
	strict.Check = failChecker{}

	cases := []struct {
		name    string
		cfg     tbr.Config
		frames  []int
		workers int
		want    func() []tbr.FrameStats // nil: the call must fail
	}{
		{"nil-frames-is-every-frame", tbr.DefaultConfig(), nil, 4, func() []tbr.FrameStats {
			sim, err := tbr.New(tbr.DefaultConfig(), tr)
			if err != nil {
				t.Fatal(err)
			}
			return sim.SimulateAll(nil)
		}},
		{"subset-with-duplicates-in-given-order", tbr.DefaultConfig(), []int{n - 1, 0, n / 2, 0}, 3, func() []tbr.FrameStats {
			return sequentialFrames(t, tbr.DefaultConfig(), tr, []int{n - 1, 0, n / 2, 0})
		}},
		{"empty-list-simulates-nothing", tbr.DefaultConfig(), []int{}, 4, func() []tbr.FrameStats {
			return []tbr.FrameStats{}
		}},
		{"out-of-range-frame-rejected", tbr.DefaultConfig(), []int{0, n}, 2, nil},
		{"negative-frame-rejected", tbr.DefaultConfig(), []int{-1}, 2, nil},
		// Warm caches make each frame depend on the one before it, so
		// the frames run in the given order on one simulator whatever
		// the worker count.
		{"warm-caches-run-in-order", warm, []int{2, 0, 1, 2, 1}, 4, func() []tbr.FrameStats {
			return sequentialFrames(t, warm, tr, []int{2, 0, 1, 2, 1})
		}},
		// A failed strict check panics out of SimulateFrame; the driver
		// must turn it into an error even on a single worker.
		{"strict-checker-errors-at-one-worker", strict, []int{0}, 1, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := tbr.SimulateFrames(context.Background(), c.cfg, tr, c.frames, c.workers)
			if c.want == nil {
				if err == nil || got != nil {
					t.Fatalf("got (%d stats, %v), want (nil, error)", len(got), err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := c.want(); !reflect.DeepEqual(got, want) {
				t.Fatalf("stats differ from the sequential reference (%d vs %d frames)", len(got), len(want))
			}
		})
	}
}
