package pool

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestClaimRunsEveryItemOnce: at any worker count every item runs
// exactly once, and each worker's setup runs once.
func TestClaimRunsEveryItemOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 7, 64} {
		var hits [n]atomic.Int32
		var setups atomic.Int32
		failed, err := Claim(context.Background(), workers, n, func(w int) (func(int), error) {
			setups.Add(1)
			return func(i int) { hits[i].Add(1) }, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := int(setups.Load()), min(workers, n); got != want || len(failed) != want {
			t.Fatalf("workers=%d: %d setups, %d slots, want %d", workers, got, len(failed), want)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestClaimSetupErrorAborts: a worker whose setup fails is marked
// failed and its error is the pool's.
func TestClaimSetupErrorAborts(t *testing.T) {
	boom := errors.New("no scratch")
	failed, err := Claim(context.Background(), 2, 10, func(w int) (func(int), error) {
		if w == 1 {
			return nil, boom
		}
		return func(int) {}, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the setup error", err)
	}
	if !failed[1] {
		t.Fatal("worker with failed setup not marked failed")
	}
}

// TestClaimPanicBecomesError: a panic out of an item names the worker
// and the cause instead of crashing the process.
func TestClaimPanicBecomesError(t *testing.T) {
	_, err := Claim(context.Background(), 3, 10, func(int) (func(int), error) {
		return func(i int) {
			if i == 4 {
				panic("bad frame")
			}
		}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "worker") || !strings.Contains(err.Error(), "bad frame") {
		t.Fatalf("err = %v, want the worker's panic", err)
	}
}

// TestWorkers: the worker-count resolution Claim applies.
func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, n, want int }{
		{0, 1 << 20, procs},
		{-1, 1 << 20, procs},
		{4, 2, 2},
		{3, 10, 3},
		{2, 0, 0},
		{2, -5, 0},
	} {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}
