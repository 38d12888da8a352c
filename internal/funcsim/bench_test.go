package funcsim

import (
	"context"
	"sync"
	"testing"

	"repro/internal/gltrace"
	"repro/internal/workload"
)

// characterizeTraces are BenchmarkCharacterize's traces, each generated
// once per test binary: the benchmark runs once per b.N probe, -cpu
// value and -count.
var characterizeTraces = []struct {
	name  string
	trace func() *gltrace.Trace
}{
	// The batch-cold campaign template: a 3D game of 1407 frames.
	{"template6", sync.OnceValue(func() *gltrace.Trace {
		return workload.MustGenerate(workload.RandomProfile(6), workload.DefaultScale)
	})},
	// pvz, a 2D game of 5000 frames of flat layers, one of
	// stream-long's traces: its characterization is bound by depth
	// clears and per-draw geometry rather than by the triangle walk.
	{"pvz", sync.OnceValue(func() *gltrace.Trace {
		return workload.MustGenerate(workload.Profiles["pvz"], workload.DefaultScale)
	})},
}

// BenchmarkCharacterize times one whole-trace characterization (Run)
// of each of characterizeTraces at DefaultScale. Frames are profiled
// across GOMAXPROCS workers, so `-cpu 1,2` gives the layer's
// thread-scaling curve. frames/s is the figure megbench reports as
// funcsim.frames_per_s. fragments/op and prims-visible/op, summed over
// the profiles, are what the op computes: they are exact on any host,
// so `make bench-check-funcsim` gates them for equality.
func BenchmarkCharacterize(b *testing.B) {
	for _, c := range characterizeTraces {
		b.Run(c.name, func(b *testing.B) {
			tr := c.trace()
			b.ReportAllocs()
			b.ResetTimer()
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = Run(context.Background(), tr, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*tr.NumFrames())/b.Elapsed().Seconds(), "frames/s")
			var fragments, prims uint64
			for _, p := range res.Profiles {
				fragments += p.Fragments
				prims += p.PrimsVisible
			}
			b.ReportMetric(float64(fragments), "fragments/op")
			b.ReportMetric(float64(prims), "prims-visible/op")
		})
	}
}
