package megsim_test

import (
	"bytes"
	"context"
	"encoding/json"
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

// Collecting pipeline metrics and a Chrome-trace timeline: attach an
// enabled registry to GPUConfig.Obs (a nil registry keeps the whole
// layer off). Parallel simulation merges per-worker registries at
// join, so the snapshot is identical however many cores simulate.
func ExampleNewObsRegistry() {
	sc := megsim.Scale{Width: 128, Height: 64, FrameDivisor: 100, DetailDivisor: 2}
	trace := megsim.MustGenerateBenchmark("hcr", sc)
	gpu := megsim.DefaultGPUConfig()
	reg := megsim.NewObsRegistry(0) // default timeline capacity; negative = metrics only
	gpu.Obs = reg
	stats, err := megsim.SimulateFullParallelCtx(context.Background(), trace, gpu, 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	total := megsim.SumStats(stats)
	snap := reg.Snapshot()
	fmt.Printf("frames: %d, cycles: %d\n", snap.Counters["tbr.frames"], total.Cycles)
	fmt.Printf("dram accesses agree: %v\n",
		snap.Counters["mem.dram.reads"]+snap.Counters["mem.dram.writes"] == total.DRAM.Accesses)
	for _, name := range []string{"mem.l2.hits", "mem.l2.misses", "queue.fragment.admitted"} {
		fmt.Printf("%s: %d\n", name, snap.Counters[name])
	}
	var chrome bytes.Buffer
	if err := snap.WriteChromeTrace(&chrome); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("timeline: %d events, valid JSON: %v\n", len(snap.Events), json.Valid(chrome.Bytes()))
	// Output:
	// frames: 20, cycles: 422916
	// dram accesses agree: true
	// mem.l2.hits: 1332
	// mem.l2.misses: 16930
	// queue.fragment.admitted: 7398
	// timeline: 100 events, valid JSON: true
}
