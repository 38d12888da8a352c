package resilience

import (
	"errors"
	"fmt"
)

// errWorkerLost classifies a frame failure caused by losing the worker
// that was executing it — a dead fabric peer, a severed connection, a
// drained pool — rather than by the frame itself. The supervisor treats
// the two differently: an ordinary failure burns one of the frame's
// MaxAttempts (the frame got a fair try and failed), while a lost
// worker never gave the frame a fair try, so the frame is requeued
// without charging an attempt, exactly as a quarantined frame's work
// re-enters the pool — bounded by Config.MaxRequeues so a permanently
// dead fleet still converges to quarantine instead of looping forever.
var errWorkerLost = errors.New("resilience: worker lost")

// WorkerLost wraps err as a worker-loss failure (see errWorkerLost).
// A nil err returns errWorkerLost itself.
func WorkerLost(err error) error {
	if err == nil {
		return errWorkerLost
	}
	return fmt.Errorf("%w: %w", errWorkerLost, err)
}

// IsWorkerLost reports whether err is classified as worker loss.
func IsWorkerLost(err error) bool { return errors.Is(err, errWorkerLost) }

// defaultMaxRequeues bounds worker-loss requeues per frame when
// Config.MaxRequeues is zero.
const defaultMaxRequeues = 16

func (c *Config) maxRequeues() int {
	switch {
	case c.MaxRequeues > 0:
		return c.MaxRequeues
	case c.MaxRequeues < 0:
		return 0
	default:
		return defaultMaxRequeues
	}
}
