package megsim_test

import (
	"context"
	"fmt"

	"repro/megsim"
)

// The full MEGsim flow on a shortened built-in benchmark: characterize,
// cluster, simulate only the representatives, extrapolate.
func ExampleSampleResilient() {
	sc := megsim.Scale{Width: 128, Height: 64, FrameDivisor: 20, DetailDivisor: 2}
	trace := megsim.MustGenerateBenchmark("hcr", sc)
	run, err := megsim.SampleResilient(context.Background(), trace, megsim.DefaultConfig(),
		megsim.DefaultGPUConfig(), megsim.ResilienceConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	reps := len(run.Representatives())
	fmt.Printf("frames: %d\n", trace.NumFrames())
	fmt.Printf("few representatives: %v\n", reps >= 2 && reps <= 30)
	fmt.Printf("reduction over 4x: %v\n", run.ReductionFactor() > 4)
	// Output:
	// frames: 100
	// few representatives: true
	// reduction over 4x: true
}

// Selecting frames without simulating them — the architecture-
// independent half of the methodology.
func ExampleSelectFrames() {
	sc := megsim.Scale{Width: 128, Height: 64, FrameDivisor: 50, DetailDivisor: 2}
	trace := megsim.MustGenerateBenchmark("pvz", sc)
	ch, err := megsim.Characterize(trace)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sel, err := megsim.SelectFrames(ch, megsim.DefaultConfig())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("clusters: %v\n", sel.Clusters.K >= 2)
	fmt.Printf("every frame assigned: %v\n", sel.NumFrames() == trace.NumFrames())
	// Output:
	// clusters: true
	// every frame assigned: true
}
