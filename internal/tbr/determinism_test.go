package tbr_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/internal/workload"
)

// TestGoldenDeterminismSerialVsParallel is the golden determinism test:
// with frame isolation, the same trace must produce byte-identical
// per-frame statistics AND identical observability snapshots from the
// sequential driver and from SimulateFrames at every worker count.
// Counters and histograms merge additively and snapshot events sort
// canonically, so even the timeline must match exactly.
func TestGoldenDeterminismSerialVsParallel(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)

	run := func(workers int) ([]tbr.FrameStats, *obs.Snapshot) {
		t.Helper()
		cfg := tbr.DefaultConfig()
		cfg.Obs = obs.New()
		var stats []tbr.FrameStats
		if workers == 0 {
			sim, err := tbr.New(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			stats = sim.SimulateAll(nil)
		} else {
			var err error
			stats, err = tbr.SimulateFrames(context.Background(), cfg, tr, nil, workers)
			if err != nil {
				t.Fatal(err)
			}
		}
		return stats, cfg.Obs.Snapshot()
	}

	goldStats, goldSnap := run(0) // plain sequential reference

	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, w := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			stats, snap := run(w)
			if len(stats) != len(goldStats) {
				t.Fatalf("frame count %d, want %d", len(stats), len(goldStats))
			}
			for i := range goldStats {
				if stats[i] != goldStats[i] {
					t.Fatalf("frame %d stats differ from sequential run:\n%+v\nvs\n%+v",
						i, stats[i], goldStats[i])
				}
			}
			if !reflect.DeepEqual(snap.Counters, goldSnap.Counters) {
				t.Fatalf("counters differ from sequential run:\n%v\nvs\n%v",
					snap.Counters, goldSnap.Counters)
			}
			if !reflect.DeepEqual(snap.Histograms, goldSnap.Histograms) {
				t.Fatalf("histograms differ from sequential run:\n%v\nvs\n%v",
					snap.Histograms, goldSnap.Histograms)
			}
			if snap.DroppedEvents != 0 || goldSnap.DroppedEvents != 0 {
				t.Fatalf("ring overflowed (dropped %d/%d); timeline comparison needs ample capacity",
					snap.DroppedEvents, goldSnap.DroppedEvents)
			}
			if !reflect.DeepEqual(snap.Events, goldSnap.Events) {
				t.Fatalf("timeline differs from sequential run (%d vs %d events)",
					len(snap.Events), len(goldSnap.Events))
			}
		})
	}
}

// TestGoldenDeterminismFrameSubset repeats the golden comparison for
// SimulateFrames over a representative-style frame subset (the
// path harness.simulateReps takes), including a duplicated frame.
func TestGoldenDeterminismFrameSubset(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	n := tr.NumFrames()
	frames := []int{0, n / 2, n - 1, n / 2, 1}

	run := func(workers int) ([]tbr.FrameStats, *obs.Snapshot) {
		t.Helper()
		cfg := tbr.DefaultConfig()
		cfg.Obs = obs.New()
		stats, err := tbr.SimulateFrames(context.Background(), cfg, tr, frames, workers)
		if err != nil {
			t.Fatal(err)
		}
		return stats, cfg.Obs.Snapshot()
	}

	goldStats, goldSnap := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			stats, snap := run(w)
			if !reflect.DeepEqual(stats, goldStats) {
				t.Fatal("frame stats differ from single-worker run")
			}
			if !reflect.DeepEqual(snap, goldSnap) {
				t.Fatalf("obs snapshot differs from single-worker run:\ncounters %v\nvs\n%v",
					snap.Counters, goldSnap.Counters)
			}
		})
	}
}

// TestObsSpansCoverEveryFrame checks the tracing contract the -trace-out
// flag relies on: one frame/geometry/raster span per simulated frame.
func TestObsSpansCoverEveryFrame(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	cfg := tbr.DefaultConfig()
	cfg.Obs = obs.New()
	stats, err := tbr.SimulateFrames(context.Background(), cfg, tr, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := cfg.Obs.Snapshot()
	if got := snap.Counters["tbr.frames"]; got != uint64(len(stats)) {
		t.Fatalf("tbr.frames = %d, want %d", got, len(stats))
	}
	perFrame := map[uint64]map[string]bool{}
	for _, e := range snap.Events {
		m := perFrame[e.TID]
		if m == nil {
			m = map[string]bool{}
			perFrame[e.TID] = m
		}
		m[e.Name] = true
	}
	for f := range stats {
		m := perFrame[uint64(f)]
		for _, want := range []string{"frame", "geometry", "raster"} {
			if !m[want] {
				t.Fatalf("frame %d missing %q span (has %v)", f, want, m)
			}
		}
	}
}
