// Observability: collect per-stage pipeline metrics and a Chrome-trace
// timeline while simulating a workload.
//
//	go run ./examples/observability
//
// The simulator is silent by default — a nil registry disables the
// whole observability layer at near-zero cost. Attaching a registry to
// GPUConfig.Obs turns on atomic counters (cache hits, queue stalls,
// shaded fragments...), bounded histograms (queue occupancy, frame
// cycles) and per-frame pipeline spans (geometry, tiling, raster,
// fragment). Parallel drivers keep this race-free by giving each worker
// its own local registry and merging at join, so the snapshot below is
// identical however many cores simulate.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/megsim"
)

func main() {
	// A short sequence keeps the example quick.
	scale := megsim.DefaultScale()
	scale.FrameDivisor = 100
	trace := megsim.MustGenerateBenchmark("hcr", scale)

	// An enabled registry with the default timeline capacity (pass a
	// negative capacity for metrics-only, no timeline).
	reg := megsim.NewObsRegistry(0)
	gpu := megsim.DefaultGPUConfig()
	gpu.Obs = reg

	// Simulate every frame in parallel; worker-local registries merge
	// into reg when the pool joins.
	stats, err := megsim.SimulateFullParallelCtx(context.Background(), trace, gpu, 0)
	if err != nil {
		log.Fatal(err)
	}
	total := megsim.SumStats(stats)
	fmt.Printf("simulated %d frames of %q: %d cycles\n", len(stats), trace.Name, total.Cycles)

	// A snapshot is plain data: counters, histograms, timeline events.
	snap := reg.Snapshot()
	fmt.Printf("\n%d counters collected, e.g.:\n", len(snap.Counters))
	for _, name := range []string{
		"tbr.frames", "tbr.fragment.busy_cycles",
		"mem.l2.hits", "mem.l2.misses", "mem.dram.row_hits",
		"queue.vertex.admitted", "queue.fragment.stall_cycles",
	} {
		fmt.Printf("  %-26s %d\n", name, snap.Counters[name])
	}
	for _, name := range snap.HistogramNames() {
		h := snap.Histograms[name]
		fmt.Printf("histogram %-28s count=%-6d mean=%.1f min=%d max=%d\n",
			name, h.Count, h.Mean(), h.Min, h.Max)
	}

	// The timeline holds one span per pipeline stage per frame; export
	// it in the Chrome trace format and load the file in
	// chrome://tracing or https://ui.perfetto.dev.
	out, err := os.Create("observability_trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()
	if err := snap.WriteChromeTrace(out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d timeline events to observability_trace.json\n", len(snap.Events))
}
