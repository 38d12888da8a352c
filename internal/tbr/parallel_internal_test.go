package tbr

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestParallelAbortsPromptlyOnWorkerFailure exercises the early-exit
// path: a worker failure must raise the abort flag, and because workers
// check it in the claim loop, the pool must stop well before draining
// the item list.
func TestParallelAbortsPromptlyOnWorkerFailure(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})

	const n = 64
	frames := make([]int, n)

	var claimed atomic.Int64
	setTestWorkerHook(func(item int) {
		if claimed.Add(1) == 3 {
			panic("injected failure")
		}
	})
	defer setTestWorkerHook(nil)

	_, err := SimulateFrames(context.Background(), DefaultConfig(), tr, frames, 4)
	if err == nil {
		t.Fatal("pool swallowed the worker failure")
	}
	if !strings.Contains(err.Error(), "worker") || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("error lost the failure cause: %v", err)
	}
	if got := claimed.Load(); got >= n {
		t.Fatalf("pool drained all %d items (%d claims) despite the failure", n, got)
	}
}

// TestRunPoolSkipsFailedWorkerRegistries: a worker that panics after
// claiming an item leaves its local obs registry partially populated
// (whatever it recorded before dying, without the rest of the item's
// data). The post-join merge must drop such registries so an aborted
// run cannot report torn counters — only cleanly finished workers
// contribute.
func TestRunPoolSkipsFailedWorkerRegistries(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})

	parent := obs.New()
	cfg := DefaultConfig()
	cfg.Obs = parent

	err := runPool(context.Background(), cfg, tr, 4, 64, func(sim *Simulator, i int) {
		if i == 5 {
			// Simulate a worker dying mid-item: partial data has
			// already landed in its worker-local registry (sim.obs is
			// the local the pool created for this worker) when the
			// panic unwinds.
			sim.obs.Counter("test.torn").Inc()
			panic("die mid-item")
		}
		sim.SimulateFrame(0)
	})
	if err == nil {
		t.Fatal("pool swallowed the worker failure")
	}
	if !strings.Contains(err.Error(), "die mid-item") {
		t.Fatalf("error lost the failure cause: %v", err)
	}
	snap := parent.Snapshot()
	if _, ok := snap.Counters["test.torn"]; ok {
		t.Fatal("merge included the failed worker's torn registry")
	}
	// The surviving workers' registries still merge: every frame
	// counted in the parent must carry its full span set.
	if frames := snap.Counters["tbr.frames"]; frames > 0 {
		var frameSpans uint64
		for _, e := range snap.Events {
			if e.Name == "frame" {
				frameSpans++
			}
		}
		if frameSpans != frames {
			t.Fatalf("parent registry torn after merge: %d frames vs %d frame spans", frames, frameSpans)
		}
	}
}

// TestParallelFirstErrorWins: with several failing workers only one
// error must surface, and the result slice must be nil.
func TestParallelFirstErrorWins(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})

	frames := make([]int, 16)
	setTestWorkerHook(func(item int) { panic("boom") })
	defer setTestWorkerHook(nil)

	out, err := SimulateFrames(context.Background(), DefaultConfig(), tr, frames, 4)
	if err == nil {
		t.Fatal("no error surfaced")
	}
	if out != nil {
		t.Fatalf("got partial results alongside the error: %d frames", len(out))
	}
}

// TestClaimPoolSimultaneousFailures releases every worker into a panic
// at the same instant and checks the pool reports exactly one coherent
// first error while marking every worker failed — the contract the obs
// merge (skip failed workers) and runPool's all-or-nothing result
// depend on.
func TestClaimPoolSimultaneousFailures(t *testing.T) {
	const workers = 8
	var (
		ready sync.WaitGroup
		gate  = make(chan struct{})
	)
	ready.Add(workers)
	// Close the gate once every worker holds an item. claimPool blocks
	// until the join, so the release must already be running.
	go func() {
		ready.Wait()
		close(gate)
	}()
	failed, err := claimPool(context.Background(), workers, workers*4, func(w int) (func(i int), error) {
		return func(i int) {
			ready.Done()
			<-gate // all workers panic together
			panic("simultaneous failure")
		}, nil
	})
	if err == nil {
		t.Fatal("pool swallowed the simultaneous failures")
	}
	if !strings.Contains(err.Error(), "simultaneous failure") {
		t.Fatalf("first error lost the cause: %v", err)
	}
	for w, f := range failed {
		if !f {
			t.Errorf("worker %d not marked failed", w)
		}
	}
}

// TestClaimPoolDegenerateInputs: workers <= 0 must default rather than
// spin up nothing, and n <= 0 must run nothing without spawning
// goroutines or touching setup.
func TestClaimPoolDegenerateInputs(t *testing.T) {
	for _, n := range []int{0, -3} {
		failed, err := claimPool(context.Background(), 4, n, func(w int) (func(i int), error) {
			t.Fatalf("setup called for n=%d", n)
			return nil, nil
		})
		if err != nil || failed != nil {
			t.Fatalf("n=%d: got failed=%v err=%v, want empty run", n, failed, err)
		}
	}

	var ran atomic.Int64
	failed, err := claimPool(context.Background(), 0, 5, func(w int) (func(i int), error) {
		return func(i int) { ran.Add(1) }, nil
	})
	if err != nil {
		t.Fatalf("workers=0: %v", err)
	}
	if got := ran.Load(); got != 5 {
		t.Fatalf("workers=0 ran %d/5 items", got)
	}
	if len(failed) == 0 {
		t.Fatal("workers=0 reported no worker slots")
	}
}

// TestClaimPoolContextCancellation: cancelling the context mid-run must
// stop the pool at the next claim, surface ctx's error, and NOT mark
// the cancelled workers failed (their last item completed cleanly).
func TestClaimPoolContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	const n = 1 << 20 // far more items than can drain before the cancel
	failed, err := claimPool(ctx, 4, n, func(w int) (func(i int), error) {
		return func(i int) {
			if done.Add(1) == 8 {
				cancel()
			}
		}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := done.Load(); got >= n {
		t.Fatalf("pool drained all %d items despite cancellation", n)
	}
	for w, f := range failed {
		if f {
			t.Errorf("cancelled worker %d marked failed", w)
		}
	}
}

// TestSimulateFramesCancelled: a pre-cancelled context must return
// ctx.Err() and no stats, for a frame subset and for every frame, at
// one worker and at several.
func TestSimulateFramesCancelled(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, c := range []struct {
		frames  []int
		workers int
	}{{[]int{0, 0, 0}, 2}, {[]int{0}, 1}, {nil, 2}} {
		if out, err := SimulateFrames(ctx, DefaultConfig(), tr, c.frames, c.workers); !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("SimulateFrames(frames=%v, workers=%d) = (%v, %v), want (nil, Canceled)", c.frames, c.workers, out, err)
		}
	}
}
