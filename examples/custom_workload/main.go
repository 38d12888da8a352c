// Custom workload: author a synthetic game profile from scratch — a
// top-down shoot-em-up with waves, boss fights and shop screens — and
// run MEGsim on it. This is what a user does when their workload is not
// one of the eight Table II benchmarks.
//
//	go run ./examples/custom_workload
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/workload"
	"repro/megsim"
)

func main() {
	shmup := workload.Profile{
		Alias:  "shmup",
		Title:  "Neon Swarm (custom)",
		Genre:  "Top-down shoot-em-up",
		Type:   workload.Game2D,
		Frames: 1800,
		NumVS:  6,
		NumFS:  8,
		Seed:   0xbee5,
		Detail: 0.9,
		Phases: []workload.Phase{
			{Name: "title", Weight: 0.08, Layers: []workload.Layer{
				{Name: "backdrop", Mesh: workload.MeshQuad, Material: 0, BaseCount: 1, SizeMin: 1, SizeMax: 1, Depth: 0.9},
				{Name: "logo", Mesh: workload.MeshQuad, Material: 1, BaseCount: 3, Spread: 0.4, SizeMin: 0.2, SizeMax: 0.4, Anim: workload.AnimBob, Depth: 0.3},
			}},
			{Name: "wave", Weight: 0.5, Repeat: 4, EventRate: 0.04, Layers: []workload.Layer{
				{Name: "starfield", Mesh: workload.MeshQuad, Material: 0, BaseCount: 1, SizeMin: 1, SizeMax: 1, Depth: 0.95},
				{Name: "enemies", Mesh: workload.MeshQuad, Material: -1, BaseCount: 14, CountAmp: 8, CountFreq: 2, Spread: 0.9, SizeMin: 0.05, SizeMax: 0.1, Anim: workload.AnimScroll, Depth: 0.5},
				{Name: "bullets", Mesh: workload.MeshQuad, Material: 2, BaseCount: 20, CountAmp: 15, CountFreq: 9, Spread: 0.9, SizeMin: 0.01, SizeMax: 0.03, Anim: workload.AnimScroll, Depth: 0.4},
				{Name: "ship", Mesh: workload.MeshQuad, Material: 3, BaseCount: 1, Spread: 0.1, SizeMin: 0.08, SizeMax: 0.08, Anim: workload.AnimBob, Depth: 0.3},
			}},
			{Name: "boss", Weight: 0.3, Repeat: 2, EventRate: 0.08, Layers: []workload.Layer{
				{Name: "starfield", Mesh: workload.MeshQuad, Material: 0, BaseCount: 1, SizeMin: 1, SizeMax: 1, Depth: 0.95},
				{Name: "boss", Mesh: workload.MeshQuad, Material: 4, BaseCount: 4, Spread: 0.3, SizeMin: 0.2, SizeMax: 0.35, Anim: workload.AnimBob, Depth: 0.45},
				{Name: "barrage", Mesh: workload.MeshQuad, Material: 2, BaseCount: 30, CountAmp: 20, CountFreq: 12, Spread: 0.9, SizeMin: 0.01, SizeMax: 0.04, Anim: workload.AnimScroll, Depth: 0.4},
				{Name: "ship", Mesh: workload.MeshQuad, Material: 3, BaseCount: 1, Spread: 0.1, SizeMin: 0.08, SizeMax: 0.08, Anim: workload.AnimBob, Depth: 0.3},
			}},
			{Name: "shop", Weight: 0.12, Layers: []workload.Layer{
				{Name: "panel", Mesh: workload.MeshQuad, Material: 1, BaseCount: 10, Spread: 0.7, SizeMin: 0.08, SizeMax: 0.25, Depth: 0.4},
			}},
		},
	}

	trace, err := megsim.GenerateTrace(shmup, megsim.DefaultScale())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom workload %q: %d frames, %d draw commands in frame 900\n",
		trace.Name, trace.NumFrames(), trace.Frames[900].DrawCount())

	run, err := megsim.SampleResilient(context.Background(), trace, megsim.DefaultConfig(),
		megsim.DefaultGPUConfig(), megsim.ResilienceConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clusters: %d, representatives: %v\n", run.Selection.Clusters.K, run.Representatives())
	fmt.Printf("reduction: %.0fx fewer frames to simulate\n", run.ReductionFactor())

	// Sanity-check the estimate against the ground truth (cheap here:
	// the custom sequence is short).
	full, err := megsim.SimulateFullParallelCtx(context.Background(), trace, megsim.DefaultGPUConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	actual := megsim.SumStats(full)
	acc := megsim.CompareAccuracy(&run.Estimate, &actual)
	fmt.Printf("relative error: cycles %.2f%%, dram %.2f%%, l2 %.2f%%, tile %.2f%%\n",
		acc.Percent(megsim.MetricCycles), acc.Percent(megsim.MetricDRAM),
		acc.Percent(megsim.MetricL2), acc.Percent(megsim.MetricTileCache))
}
