// Package pool holds the one work-distribution primitive every parallel
// layer shares: the frame driver of internal/tbr, the frame-parallel functional characterization of
// internal/funcsim, the chunked k-means steps of internal/cluster and
// the per-frame attempt loops of the internal/resilience supervisor.
//
// Claim never decides what a result is, only which goroutine computes
// it. Callers write each item's result by index and fold after the join
// in index order, so their output is identical for any worker count.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Claim runs `workers` goroutines that claim items from [0, n) off an
// atomic counter and run the per-worker fn built by setup(w). A failed
// worker (setup error, or a panic out of fn converted to an error)
// raises an abort flag every worker checks in its claim loop, so the
// pool stops promptly instead of draining the remaining items;
// cancelling ctx raises the same flag (with ctx.Err() as the pool
// error), so cancellation is honored at the next claim — never
// mid-item. The returned failed slice marks which workers did not
// finish cleanly — their side effects (e.g. a local obs registry) may
// be torn mid-item and must not be merged. A worker stopped by
// cancellation is NOT marked failed: it completed its last item before
// observing the flag.
//
// workers <= 0 defaults to GOMAXPROCS (clamped to n); n <= 0 runs
// nothing and returns only ctx's current error, so degenerate pools
// cannot spin up goroutines or index out of range.
func Claim(ctx context.Context, workers, n int, setup func(w int) (fn func(i int), err error)) (failed []bool, firstErr error) {
	workers = Workers(workers, n)
	if n <= 0 {
		return nil, ctx.Err()
	}
	failed = make([]bool, workers)
	var (
		next    atomic.Int64
		abort   atomic.Bool
		errOnce sync.Once
		wg      sync.WaitGroup
	)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fail := func(err error) {
				failed[w] = true
				errOnce.Do(func() { firstErr = err })
				abort.Store(true)
			}
			defer func() {
				if r := recover(); r != nil {
					// Raise the flag before the panic value is
					// formatted, which may run the value's own
					// String method.
					abort.Store(true)
					fail(fmt.Errorf("pool: worker %d: %v", w, r))
				}
			}()
			fn, err := setup(w)
			if err != nil {
				fail(err)
				return
			}
			for !abort.Load() {
				if done != nil {
					select {
					case <-done:
						// Cancellation is clean: no item is torn, so the
						// worker is not marked failed, but the pool must
						// report why it stopped short.
						errOnce.Do(func() { firstErr = ctx.Err() })
						abort.Store(true)
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}(w)
	}
	wg.Wait()
	return failed, firstErr
}

// Workers resolves a requested worker count the way Claim does:
// workers <= 0 means GOMAXPROCS, and no more workers than items.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, max(n, 0))
}
