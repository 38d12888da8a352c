package tbr

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/pool"
)

// testWorkerHook, when non-nil, is called by pool workers before each
// claimed item. Test-only: it lets tests inject failures mid-run to
// exercise the abort path. It is an atomic pointer because pool worker
// goroutines read it while tests in other packages' test binaries may
// install or clear it around pools that are still draining.
var testWorkerHook atomic.Pointer[func(item int)]

// setTestWorkerHook installs (or, with nil, clears) the worker hook.
func setTestWorkerHook(h func(item int)) {
	if h == nil {
		testWorkerHook.Store(nil)
		return
	}
	testWorkerHook.Store(&h)
}

// claimPool is the shared claim primitive (pool.Claim) used by
// SimulateFrames, with the test worker hook spliced in before every
// claimed item.
func claimPool(ctx context.Context, workers, n int, setup func(w int) (fn func(i int), err error)) (failed []bool, firstErr error) {
	return pool.Claim(ctx, workers, n, func(w int) (func(i int), error) {
		fn, err := setup(w)
		if err != nil {
			return nil, err
		}
		return func(i int) {
			if h := testWorkerHook.Load(); h != nil {
				(*h)(i)
			}
			fn(i)
		}, nil
	})
}

// runPool runs fn(sim, i) for every i in [0, n) across `workers`
// goroutines, each with its own Simulator, via claimPool.
//
// When cfg.Obs is enabled each worker records into a local registry;
// the locals of cleanly finished workers are merged into cfg.Obs in
// worker order after the join, so instrumentation is race-free by
// construction and — because counters and histograms are additive and
// snapshot events sort canonically — deterministic regardless of how
// items were distributed. A worker that failed mid-item leaves its
// local registry partially populated (e.g. a frame's counters without
// its spans); merging it would let an aborted run report torn numbers,
// so failed workers' registries are dropped.
func runPool(ctx context.Context, cfg Config, trace *gltrace.Trace, workers, n int, fn func(sim *Simulator, i int)) error {
	parent := cfg.Obs
	workers = pool.Workers(workers, n)
	locals := make([]*obs.Registry, workers)
	failed, firstErr := claimPool(ctx, workers, n, func(w int) (func(i int), error) {
		wcfg := cfg
		if parent.Enabled() {
			locals[w] = parent.NewLocal()
			wcfg.Obs = locals[w]
		}
		sim, err := New(wcfg, trace)
		if err != nil {
			return nil, err
		}
		return func(i int) { fn(sim, i) }, nil
	})
	for w, l := range locals {
		if w < len(failed) && failed[w] {
			continue
		}
		parent.Merge(l)
	}
	return firstErr
}

// SimulateFrames is the one frame-list driver: it cycle-simulates the
// given frames of the trace and returns their stats in frames order.
// frames == nil means every frame of the trace; a non-nil empty list
// simulates nothing; duplicates are simulated once per occurrence; an
// out-of-range index is rejected before anything runs.
//
// With FlushCachesPerFrame every frame starts cold, so the frames fan
// out over `workers` goroutines (0 = GOMAXPROCS), each with its own
// Simulator, and the result is bit-identical to a sequential
// SimulateFrame loop however they are distributed. Without it each
// frame starts from the caches the previous one left, so the frames run
// in the given order on one simulator. Either way they go through
// runPool, so a panic out of SimulateFrame (a failed strict checker)
// becomes an error, and cancelling ctx stops the run at the next frame
// claim. On error or cancellation no stats are returned.
func SimulateFrames(ctx context.Context, cfg Config, trace *gltrace.Trace, frames []int, workers int) ([]FrameStats, error) {
	n := trace.NumFrames()
	if frames == nil {
		frames = make([]int, n)
		for f := range frames {
			frames[f] = f
		}
	}
	for _, f := range frames {
		if f < 0 || f >= n {
			return nil, fmt.Errorf("tbr: frame %d out of range [0,%d)", f, n)
		}
	}
	if !cfg.FlushCachesPerFrame {
		workers = 1
	}
	out := make([]FrameStats, len(frames))
	err := runPool(ctx, cfg, trace, workers, len(frames), func(sim *Simulator, i int) {
		out[i] = sim.SimulateFrame(frames[i])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
