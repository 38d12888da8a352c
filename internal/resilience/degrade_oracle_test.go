package resilience_test

// The degraded-mode oracle gate lives in the external test package:
// it judges accuracy with internal/check, which imports the study
// driver in internal/harness, which imports this package.

import (
	"context"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/tbr"
	"repro/internal/workload"
)

// TestDegradedAccuracyWithinWidenedBands is the degraded-mode oracle
// gate: on three fixed randomized workloads, quarantine the biggest
// cluster's representative, substitute and re-estimate, and require
// every Fig. 7 metric to stay within the oracle tolerance widened 3x —
// degraded accuracy, never silent failure.
func TestDegradedAccuracyWithinWidenedBands(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates full sequences; skipped in -short")
	}
	scale := workload.Scale{Width: 128, Height: 64, FrameDivisor: 10, DetailDivisor: 2}
	tol := check.DefaultTolerance().Scaled(3)
	for _, seed := range []uint64{1, 2, 3} {
		p := workload.RandomProfile(seed)
		tr, err := workload.Generate(p, scale)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ch, err := funcsim.Run(context.Background(), tr, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mcfg := core.DefaultConfig()
		fs, err := core.BuildFeatures(ch, mcfg.Feature)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sel, err := core.Select(fs, mcfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full, err := tbr.SimulateFrames(context.Background(), tbr.DefaultConfig(), tr, nil, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fullTotals := core.SumStats(full)

		// Quarantine the representative of the biggest cluster — the
		// worst single loss the degradation can take without losing a
		// cluster outright.
		biggest := 0
		for c, sz := range sel.Clusters.Sizes {
			if sz > sel.Clusters.Sizes[biggest] {
				biggest = c
			}
		}
		quarantined := map[int]bool{sel.Representatives[biggest]: true}
		d := sel.Degrade(quarantined)
		if !d.Degraded() {
			t.Fatalf("seed %d: quarantined representative not reported as degradation", seed)
		}
		// Frame isolation makes a standalone representative identical to
		// the same frame inside the full run, so the full run provides
		// the substitutes' stats.
		repStats := map[int]tbr.FrameStats{}
		for _, f := range d.Plan {
			if f >= 0 {
				repStats[f] = full[f]
			}
		}
		est, err := d.Estimate(repStats)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, row := range check.CompareRows(&est, &fullTotals, tol) {
			if !row.Pass {
				t.Errorf("seed %d: degraded %s err %.2f%% exceeds widened band %.2f%%",
					seed, row.Name, row.RelErr*100, row.Tolerance*100)
			}
		}
	}
}
