// Quickstart: run MEGsim on a built-in benchmark and compare against a
// full simulation.
//
//	go run ./examples/quickstart
//
// This exercises the complete public API in ~10 seconds: synthesize the
// "Hill Climb Racing" workload, characterize it with the functional
// simulator, cluster the frames, simulate only the representatives on
// the cycle-level TBR GPU model, and validate the extrapolated
// statistics against the full simulation.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/megsim"
)

func main() {
	// The full 2000-frame hcr sequence at the standard reduced scale.
	trace := megsim.MustGenerateBenchmark("hcr", megsim.DefaultScale())
	fmt.Printf("workload %q: %d frames, %d vertex shaders, %d fragment shaders\n",
		trace.Name, trace.NumFrames(), len(trace.VertexShaders), len(trace.FragmentShaders))

	// MEGsim: characterize -> cluster -> simulate representatives.
	start := time.Now()
	run, err := megsim.SampleResilient(context.Background(), trace, megsim.DefaultConfig(),
		megsim.DefaultGPUConfig(), megsim.ResilienceConfig{})
	if err != nil {
		log.Fatal(err)
	}
	sampledTime := time.Since(start)
	fmt.Printf("MEGsim picked %d representative frames (%.0fx reduction) in %v\n",
		len(run.Representatives()), run.ReductionFactor(), sampledTime.Round(time.Millisecond))

	// Validate against the expensive full simulation.
	start = time.Now()
	full, err := megsim.SimulateFullParallelCtx(context.Background(), trace, megsim.DefaultGPUConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fullTime := time.Since(start)
	actual := megsim.SumStats(full)
	acc := megsim.CompareAccuracy(&run.Estimate, &actual)

	fmt.Printf("full simulation took %v (%.0fx slower)\n",
		fullTime.Round(time.Millisecond), float64(fullTime)/float64(sampledTime))
	fmt.Printf("%-12s %15s %15s %8s\n", "metric", "estimated", "actual", "error")
	show := func(name string, est, act uint64, m megsim.Metric) {
		fmt.Printf("%-12s %15d %15d %7.2f%%\n", name, est, act, acc.Percent(m))
	}
	show("cycles", run.Estimate.Cycles, actual.Cycles, megsim.MetricCycles)
	show("dram", run.Estimate.DRAM.Accesses, actual.DRAM.Accesses, megsim.MetricDRAM)
	show("l2", run.Estimate.L2.Accesses, actual.L2.Accesses, megsim.MetricL2)
	show("tile-cache", run.Estimate.TileCache.Accesses, actual.TileCache.Accesses, megsim.MetricTileCache)
}
