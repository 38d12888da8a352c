package funcsim

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkCharacterize times one whole-trace characterization (Run) of
// the batch-cold campaign template: workload.RandomProfile(6), a 3D
// game of 1407 frames at DefaultScale. Frames are profiled across
// GOMAXPROCS workers, so `-cpu 1,2` gives the layer's thread-scaling
// curve. frames/s is the figure megbench reports as
// funcsim.frames_per_s.
func BenchmarkCharacterize(b *testing.B) {
	tr := workload.MustGenerate(workload.RandomProfile(6), workload.DefaultScale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*tr.NumFrames())/b.Elapsed().Seconds(), "frames/s")
}
