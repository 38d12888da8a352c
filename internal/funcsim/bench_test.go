package funcsim

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// BenchmarkCharacterize times one whole-trace characterization (Run) of
// the batch-cold campaign template: workload.RandomProfile(6), a 3D
// game of 1407 frames at DefaultScale. Frames are profiled across
// GOMAXPROCS workers, so `-cpu 1,2` gives the layer's thread-scaling
// curve. frames/s is the figure megbench reports as
// funcsim.frames_per_s. fragments/op and prims-visible/op, summed over
// the profiles, are what the op computes: they are exact on any host,
// so `make bench-check-funcsim` gates them for equality.
func BenchmarkCharacterize(b *testing.B) {
	tr := workload.MustGenerate(workload.RandomProfile(6), workload.DefaultScale)
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
}
