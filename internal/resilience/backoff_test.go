package resilience

import (
	"testing"
	"time"
)

func TestBackoffDeterministic(t *testing.T) {
	for frame := 0; frame < 8; frame++ {
		for attempt := 1; attempt <= 6; attempt++ {
			a := backoff(0, backoffCap, frame, attempt)
			b := backoff(0, backoffCap, frame, attempt)
			if a != b {
				t.Fatalf("frame %d attempt %d: %v != %v", frame, attempt, a, b)
			}
		}
	}
}

func TestBackoffEnvelope(t *testing.T) {
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	for frame := 0; frame < 16; frame++ {
		prevCeil := time.Duration(0)
		for attempt := 1; attempt <= 8; attempt++ {
			d := backoff(base, cap, frame, attempt)
			ceil := base << (attempt - 1)
			if ceil > cap || ceil <= 0 {
				ceil = cap
			}
			if d > ceil {
				t.Fatalf("frame %d attempt %d: %v exceeds ceiling %v", frame, attempt, d, ceil)
			}
			if d < ceil/2 {
				t.Fatalf("frame %d attempt %d: %v below jitter floor %v", frame, attempt, d, ceil/2)
			}
			if ceil < prevCeil {
				t.Fatalf("ceiling shrank: %v < %v", ceil, prevCeil)
			}
			prevCeil = ceil
		}
	}
}

func TestBackoffDisabledAndDefaults(t *testing.T) {
	if d := backoff(-1, backoffCap, 3, 2); d != 0 {
		t.Fatalf("negative base should disable backoff, got %v", d)
	}
	d := backoff(0, backoffCap, 0, 1)
	if d <= 0 || d > defaultBackoffBase {
		t.Fatalf("zero base should use the default, got %v", d)
	}
	// Deep attempts saturate at the cap.
	if d := backoff(time.Millisecond, 8*time.Millisecond, 0, 30); d > 8*time.Millisecond {
		t.Fatalf("cap not honored: %v", d)
	}
}
