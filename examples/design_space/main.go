// Design-space exploration: the use case that motivates MEGsim. The
// paper's intro observes that cycle-accurate simulation becomes
// prohibitive "when hundreds of simulations have to be carried out to
// explore a desired design space". Because MEGsim's characterization is
// architecture-independent, the SAME representative frames can be
// reused for every configuration: select once, then sweep.
//
// This example sweeps the L2 cache size from 32 KiB to 1 MiB on one
// benchmark, simulating only ~30 representatives per point, and
// validates the sweep's first point against a full simulation.
//
//	go run ./examples/design_space
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/megsim"
)

func main() {
	trace := megsim.MustGenerateBenchmark("jjo", megsim.DefaultScale())

	// Select representatives ONCE (architecture-independent).
	ch, err := megsim.Characterize(trace)
	if err != nil {
		log.Fatal(err)
	}
	sel, err := megsim.SelectFrames(ch, megsim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected %d representatives out of %d frames (%.0fx)\n\n",
		sel.NumRepresentatives(), trace.NumFrames(), sel.ReductionFactor())

	fmt.Printf("%-8s %15s %15s %12s %10s\n", "L2", "est. cycles", "est. dram", "l2 hit-rate", "sim time")
	sweep := []int{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	var firstEstimate megsim.FrameStats
	for i, l2 := range sweep {
		gpu := megsim.DefaultGPUConfig()
		gpu.L2.SizeBytes = l2

		start := time.Now()
		sim, err := megsim.NewSimulator(gpu, trace)
		if err != nil {
			log.Fatal(err)
		}
		repStats := make(map[int]megsim.FrameStats, sel.NumRepresentatives())
		for _, f := range sel.Representatives {
			repStats[f] = sim.SimulateFrame(f)
		}
		est, err := sel.Estimate(repStats)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("%-8s %15d %15d %11.1f%% %10v\n",
			fmt.Sprintf("%dKiB", l2>>10), est.Cycles, est.DRAM.Accesses,
			est.L2.HitRate()*100, elapsed.Round(time.Millisecond))
		if i == 0 {
			firstEstimate = est
		}
	}

	// Validate the smallest-L2 point against ground truth.
	fmt.Println("\nvalidating the 32KiB point against a full simulation...")
	gpu := megsim.DefaultGPUConfig()
	gpu.L2.SizeBytes = 32 << 10
	start := time.Now()
	full, err := megsim.SimulateFullParallelCtx(context.Background(), trace, gpu, 0)
	if err != nil {
		log.Fatal(err)
	}
	actual := megsim.SumStats(full)
	acc := megsim.CompareAccuracy(&firstEstimate, &actual)
	fmt.Printf("full simulation: %v; relative error: cycles %.2f%%, dram %.2f%%\n",
		time.Since(start).Round(time.Millisecond),
		acc.Percent(megsim.MetricCycles), acc.Percent(megsim.MetricDRAM))
}
