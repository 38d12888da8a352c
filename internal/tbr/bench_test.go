package tbr_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/internal/workload"
)

// BenchmarkSimulateFrameObs measures the observability layer's overhead
// on the cycle simulator's hot path: "off" is the nil-registry default
// (every instrumentation point pays one nil check), "on" records the
// full counter/histogram/span set. The acceptance bar is <2% regression
// for "off" relative to the uninstrumented baseline.
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
			for i := 0; i < b.N; i++ {
				sim.SimulateFrame(frame)
			}
		})
	}
}

// BenchmarkTileParallelRaster demonstrates the tile-parallel raster
// stage on the large (highend) preset with a raster-heavy frame:
// "serial" is the legacy warm-cache model (TileWorkers = 0), the
// tile-workers=N entries run the sharded model. The acceptance bar is
// >= 1.5x speedup of tile-workers=4 over tile-workers=1 (every
// TileWorkers >= 1 setting computes byte-identical results, so the
// ratio is pure wall-clock). On a single-CPU host the multi-worker
// entries collapse to tile-workers=1 time: the per-tile work is
// lock-free and evenly claimable, so scaling is bounded only by
// GOMAXPROCS.
func BenchmarkTileParallelRaster(b *testing.B) {
	tr := workload.MustGenerate(workload.Profiles["hcr"],
		workload.Scale{Width: 1024, Height: 512, FrameDivisor: 8, DetailDivisor: 1})
	frame := tr.NumFrames() / 2
	for _, tw := range []int{0, 1, 2, 4} {
		name := fmt.Sprintf("tile-workers=%d", tw)
		if tw == 0 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			// Simulator construction (cache arenas, shard contexts) stays
			// outside the timed region, and allocs/op is reported: the
			// arena-reused hot path's allocation budget is part of the
			// bench-check regression gate.
			cfg, err := tbr.Preset("highend")
			if err != nil {
				b.Fatal(err)
			}
			cfg.TileWorkers = tw
			sim, err := tbr.New(cfg, tr)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.SimulateFrame(frame)
			}
		})
	}
}

// BenchmarkSimulateFramesObs measures the worker-local-registry
// merge pattern end to end at full parallelism.
func BenchmarkSimulateFramesObs(b *testing.B) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := tbr.DefaultConfig()
				if mode == "on" {
					cfg.Obs = obs.New()
				}
				if _, err := tbr.SimulateFrames(context.Background(), cfg, tr, nil, 0); err != nil {
					b.Fatal(err)
				}
				if cfg.Obs != nil {
					cfg.Obs.Snapshot()
				}
			}
		})
	}
}
