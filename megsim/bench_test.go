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
// re-validating the 5000-frame trace) multiplies both. It reports the
// frame's cycles/op and dram-accesses/op, and frames/op: the frames one
// call simulates, read from an enabled obs registry on one untimed call
// after the timed loop, so an extra simulation whose stats are
// discarded still shows.
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
	var st megsim.FrameStats
	for i := 0; i < b.N; i++ {
		var err error
		if st, err = run(ctx, frame, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reg := megsim.NewObsRegistry(0)
	if _, err := run(ctx, frame, reg); err != nil {
		b.Fatal(err)
	}
	// The frame's simulated work: exact on any host, so bench-check
	// gates it for equality with the baseline.
	b.ReportMetric(float64(st.Cycles), "cycles/op")
	b.ReportMetric(float64(st.DRAM.Accesses), "dram-accesses/op")
	b.ReportMetric(float64(reg.Snapshot().Counters["tbr.frames"]), "frames/op")
}

// benchTrace generates pvz once per test binary: the benchmark function
// runs once per b.N probe, -cpu value and -count.
var benchTrace = sync.OnceValue(func() *megsim.Trace {
	return megsim.MustGenerateBenchmark("pvz", megsim.DefaultScale())
})
