package resilience

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/tbr"
	"repro/internal/workload"
)

// synthSelection builds a 6-frame, 2-cluster selection by hand:
// cluster 0 = frames {0,1,2} around centroid 0.05 (rep 0), cluster 1 =
// frames {3,4,5} around centroid 1.05 (rep 3). Frames 1 and 2 are
// equidistant from centroid 0 so substitution tie-breaking is observable.
func synthSelection() *core.Selection {
	return &core.Selection{
		Features: &core.FeatureSet{Vectors: [][]float64{
			{0.05}, {0.0}, {0.1}, {1.05}, {1.0}, {1.3},
		}},
		Clusters: cluster.Result{
			K:         2,
			Centroids: [][]float64{{0.05}, {1.05}},
			Assign:    []int{0, 0, 0, 1, 1, 1},
			Sizes:     []int{3, 3},
		},
		Representatives: []int{0, 3},
	}
}

func synthRepStats() map[int]tbr.FrameStats {
	st := map[int]tbr.FrameStats{}
	for f := 0; f < 6; f++ {
		st[f] = synthStats(f)
	}
	return st
}

func TestDegradeNoQuarantineIsIdentity(t *testing.T) {
	sel := synthSelection()
	d := Degrade(sel, nil)
	if d.Degraded() {
		t.Fatalf("undegraded selection reported degraded: %+v", d)
	}
	if !reflect.DeepEqual(d.Representatives, sel.Representatives) {
		t.Fatalf("representatives changed: %v", d.Representatives)
	}
	if d.Coverage() != 1.0 {
		t.Fatalf("coverage = %v, want 1", d.Coverage())
	}
	repStats := synthRepStats()
	got, err := d.Estimate(repStats)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sel.Estimate(repStats)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("undegraded estimate differs from core path:\n got %+v\nwant %+v", got, want)
	}
}

func TestDegradeSubstitutesClosestSurvivor(t *testing.T) {
	sel := synthSelection()
	d := Degrade(sel, map[int]bool{0: true})
	if !d.Degraded() || len(d.LostClusters) != 0 {
		t.Fatalf("unexpected shape: %+v", d)
	}
	// Frames 1 (at 0.0) and 2 (at 0.1) are both 0.05 from the centroid;
	// the tie breaks on the lower frame index.
	if !reflect.DeepEqual(d.Representatives, []int{1, 3}) {
		t.Fatalf("representatives = %v, want [1 3]", d.Representatives)
	}
	if len(d.Substitutions) != 1 {
		t.Fatalf("substitutions: %+v", d.Substitutions)
	}
	s := d.Substitutions[0]
	if s.Cluster != 0 || s.Original != 0 || s.Substitute != 1 {
		t.Fatalf("substitution %+v", s)
	}
	if s.OriginalDist != 0 || math.Abs(s.SubstituteDist-0.0025) > 1e-12 {
		t.Fatalf("distances: %+v", s)
	}
	if d.Coverage() != 1.0 {
		t.Fatalf("substitution should not reduce coverage: %v", d.Coverage())
	}
	// The estimate runs on the substitute's stats with unchanged weights.
	repStats := synthRepStats()
	got, err := d.Estimate(repStats)
	if err != nil {
		t.Fatal(err)
	}
	sub := repStats[1].Scale(3)
	rest := repStats[3].Scale(3)
	sub.Add(&rest)
	sub.Frame = -1
	if got != sub {
		t.Fatalf("degraded estimate:\n got %+v\nwant %+v", got, sub)
	}
	// The quarantined original's stats must not be required.
	delete(repStats, 0)
	if _, err := d.Estimate(repStats); err != nil {
		t.Fatalf("estimate needs quarantined frame's stats: %v", err)
	}
}

func TestDegradeLostClusterRescales(t *testing.T) {
	sel := synthSelection()
	d := Degrade(sel, map[int]bool{3: true, 4: true, 5: true})
	if !reflect.DeepEqual(d.LostClusters, []int{1}) {
		t.Fatalf("lost clusters = %v, want [1]", d.LostClusters)
	}
	if !reflect.DeepEqual(d.Representatives, []int{0, -1}) {
		t.Fatalf("representatives = %v", d.Representatives)
	}
	if d.CoveredFrames != 3 || d.Coverage() != 0.5 {
		t.Fatalf("coverage %d/%v", d.CoveredFrames, d.Coverage())
	}
	if !reflect.DeepEqual(d.ActiveRepresentatives(), []int{0}) {
		t.Fatalf("active reps = %v", d.ActiveRepresentatives())
	}
	repStats := synthRepStats()
	got, err := d.Estimate(repStats)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster 0's contribution (3 frames) rescaled to the 6-frame target.
	want := repStats[0].Scale(3).ScaleF(2.0)
	want.Frame = -1
	if got != want {
		t.Fatalf("rescaled estimate:\n got %+v\nwant %+v", got, want)
	}

	// Everything quarantined: no estimate, a loud error.
	all := Degrade(sel, map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true})
	if len(all.LostClusters) != 2 {
		t.Fatalf("lost clusters: %v", all.LostClusters)
	}
	if _, err := all.Estimate(repStats); err == nil {
		t.Fatal("total loss produced an estimate")
	}
}

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
		d := Degrade(sel, quarantined)
		if !d.Degraded() {
			t.Fatalf("seed %d: quarantined representative not reported as degradation", seed)
		}
		// Frame isolation makes a standalone representative identical to
		// the same frame inside the full run, so the full run provides
		// the substitutes' stats.
		repStats := map[int]tbr.FrameStats{}
		for _, f := range d.ActiveRepresentatives() {
			repStats[f] = full[f]
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
