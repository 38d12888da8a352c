package tbr_test

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/internal/workload"
)

// reportWork reports the work counts of one op: with FlushCachesPerFrame
// (the default) they are a pure function of the trace, the frames and
// the configuration, so cmd/benchjson -check gates every such */op unit
// for exact equality with the baseline, on any host.
func reportWork(b *testing.B, st *tbr.FrameStats) {
	b.ReportMetric(float64(st.Cycles), "cycles/op")
	b.ReportMetric(float64(st.DRAM.Accesses), "dram-accesses/op")
	b.ReportMetric(float64(st.L2.Accesses), "l2-accesses/op")
	b.ReportMetric(float64(st.TileCache.Accesses), "tile-accesses/op")
}

// BenchmarkSimulateFrameObs measures the observability layer's overhead
// on the cycle simulator's hot path: "off" is the nil-registry default
// (every instrumentation point pays one nil check), "on" records the
// full counter/histogram/span set. The bars: "off" regresses <2%
// relative to the uninstrumented baseline, and "on" costs at most 1.40x
// "off" at -cpu 1 (queue occupancy is tallied per admit and folded into
// its histogram once per frame). Neither bar is a bench-check gate:
// repeated runs on a shared host spread wider than the margins they
// set. The queue tests pin that admits leave the histogram untouched
// until the fold.
func BenchmarkSimulateFrameObs(b *testing.B) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 256, Height: 128, FrameDivisor: 8, DetailDivisor: 1})
	frame := tr.NumFrames() / 2
	for _, mode := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"off", nil},
		{"on", obs.New()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			// Construction stays outside the timed region; the loop
			// measures steady-state frame simulation only.
			cfg := tbr.DefaultConfig()
			cfg.Obs = mode.reg
			sim, err := tbr.New(cfg, tr)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var st tbr.FrameStats
			for i := 0; i < b.N; i++ {
				st = sim.SimulateFrame(frame)
			}
			reportWork(b, &st)
		})
	}
}

// BenchmarkSimulateFrameHighend simulates one raster-heavy frame (hcr
// at 1024x512) on the highend preset, the largest machine the presets
// describe. Construction stays outside the timed region, and allocs/op
// and the frame's work counts are reported: both are part of the
// bench-check regression gate.
func BenchmarkSimulateFrameHighend(b *testing.B) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 1024, Height: 512, FrameDivisor: 8, DetailDivisor: 1})
	frame := tr.NumFrames() / 2
	cfg, err := tbr.Preset("highend")
	if err != nil {
		b.Fatal(err)
	}
	sim, err := tbr.New(cfg, tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st tbr.FrameStats
	for i := 0; i < b.N; i++ {
		st = sim.SimulateFrame(frame)
	}
	reportWork(b, &st)
}

// BenchmarkSimulateFramesObs measures the worker-local-registry
// merge pattern end to end at full parallelism. Its work counts are
// summed over the trace's frames.
func BenchmarkSimulateFramesObs(b *testing.B) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			var stats []tbr.FrameStats
			for i := 0; i < b.N; i++ {
				cfg := tbr.DefaultConfig()
				if mode == "on" {
					cfg.Obs = obs.New()
				}
				var err error
				if stats, err = tbr.SimulateFrames(context.Background(), cfg, tr, nil, 0); err != nil {
					b.Fatal(err)
				}
				if cfg.Obs != nil {
					cfg.Obs.Snapshot()
				}
			}
			b.StopTimer()
			var total tbr.FrameStats
			for i := range stats {
				total.Add(&stats[i])
			}
			reportWork(b, &total)
		})
	}
}
