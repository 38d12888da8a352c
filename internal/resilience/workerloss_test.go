package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/tbr"
)

func TestWorkerLostClassification(t *testing.T) {
	inner := errors.New("connection refused")
	err := WorkerLost(inner)
	if !IsWorkerLost(err) || !errors.Is(err, errWorkerLost) {
		t.Fatalf("WorkerLost(err) not classified: %v", err)
	}
	if !errors.Is(err, inner) {
		t.Fatalf("WorkerLost(err) lost the cause: %v", err)
	}
	if !IsWorkerLost(WorkerLost(nil)) {
		t.Fatal("WorkerLost(nil) not classified")
	}
	if IsWorkerLost(errors.New("frame is broken")) {
		t.Fatal("ordinary error classified as worker loss")
	}
	if IsWorkerLost(fmt.Errorf("wrap: %w", context.Canceled)) {
		t.Fatal("cancellation classified as worker loss")
	}
}

// TestWorkerLossRequeuesWithoutChargingAttempts is the fault-class
// contract: a frame whose dispatches keep dying with the worker is
// requeued for free — with MaxAttempts 1 (no ordinary retry at all) it
// still completes after several worker losses, and the accounting shows
// the requeues.
func TestWorkerLossRequeuesWithoutChargingAttempts(t *testing.T) {
	const losses = 5
	var mu sync.Mutex
	calls := map[int]int{}
	fn := func(_ context.Context, frame int, _ *obs.Registry) (tbr.FrameStats, error) {
		mu.Lock()
		calls[frame]++
		n := calls[frame]
		mu.Unlock()
		if frame == 2 && n <= losses {
			return tbr.FrameStats{}, WorkerLost(fmt.Errorf("worker died on dispatch %d", n))
		}
		return tbr.FrameStats{Frame: frame, Cycles: uint64(100 + frame)}, nil
	}
	res, err := Run(context.Background(), []int{0, 1, 2}, fn, Config{
		Workers:     1,
		MaxAttempts: 1,
		BackoffBase: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("worker-lost frame quarantined: %v", res.Quarantined)
	}
	if len(res.Stats) != 3 {
		t.Fatalf("completed %d frames, want 3", len(res.Stats))
	}
	if res.Requeued != losses {
		t.Fatalf("Requeued = %d, want %d", res.Requeued, losses)
	}
	// Free requeues are not retries: no frame "needed more than one
	// attempt" in the MaxAttempts sense.
	if res.Retried != 0 {
		t.Fatalf("Retried = %d, want 0 (requeues are not retries)", res.Retried)
	}
}

// TestWorkerLossRequeueCapQuarantines: with the fleet permanently dead,
// the requeue cap converges the frame to quarantine instead of looping
// forever, and the quarantine record carries the worker-loss cause.
func TestWorkerLossRequeueCapQuarantines(t *testing.T) {
	const cap = 3
	var mu sync.Mutex
	calls := 0
	fn := func(context.Context, int, *obs.Registry) (tbr.FrameStats, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return tbr.FrameStats{}, WorkerLost(errors.New("no live workers"))
	}
	res, err := Run(context.Background(), []int{7}, fn, Config{
		Workers:     1,
		MaxAttempts: 1,
		MaxRequeues: cap,
		BackoffBase: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0].Frame != 7 {
		t.Fatalf("quarantine = %v, want frame 7", res.Quarantined)
	}
	if got := res.Quarantined[0].Attempts; got != 1 {
		t.Fatalf("quarantine attempts = %d, want 1 (requeues are uncharged)", got)
	}
	if calls != cap+1 {
		t.Fatalf("%d dispatches, want %d (cap requeues + the charged attempt)", calls, cap+1)
	}
	if res.Requeued != cap {
		t.Fatalf("Requeued = %d, want %d", res.Requeued, cap)
	}
}

// TestWorkerLossRequeuesDisabled: a negative MaxRequeues turns the
// classification off — worker losses burn attempts like any failure.
func TestWorkerLossRequeuesDisabled(t *testing.T) {
	calls := 0
	fn := func(context.Context, int, *obs.Registry) (tbr.FrameStats, error) {
		calls++
		return tbr.FrameStats{}, WorkerLost(errors.New("gone"))
	}
	res, err := Run(context.Background(), []int{0}, fn, Config{
		Workers:     1,
		MaxAttempts: 2,
		MaxRequeues: -1,
		BackoffBase: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("%d dispatches, want MaxAttempts=2", calls)
	}
	if res.Requeued != 0 || len(res.Quarantined) != 1 {
		t.Fatalf("requeued %d, quarantined %v", res.Requeued, res.Quarantined)
	}
}
