package megsim_test

import (
	"context"
	"sync"
	"testing"

	"repro/megsim"
)

// BenchmarkFrameRunner times one representative frame of pvz at
// DefaultScale through megsim.FrameRunner, the per-frame path of every
// campaign's second phase. The runner is warmed before the timer, so
// with simulator reuse an op is one frame's simulation and its
// allocs/op is deterministic; building a simulator per frame (and
// re-validating the 5000-frame trace) multiplies both.
func BenchmarkFrameRunner(b *testing.B) {
	tr := benchTrace()
	run := megsim.FrameRunner(tr, megsim.DefaultGPUConfig())
	frame := tr.NumFrames() / 2
	ctx := context.Background()
	if _, err := run(ctx, frame, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(ctx, frame, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrace generates pvz once per test binary: the benchmark function
// runs once per b.N probe, -cpu value and -count.
var benchTrace = sync.OnceValue(func() *megsim.Trace {
	return megsim.MustGenerateBenchmark("pvz", megsim.DefaultScale())
})
