package resilience

// The degradation rules of the supervisor's degraded mode live beside
// the selections they degrade: core.Selection.Degrade (the batch
// closest-survivor rule) and stream.Selection.Degrade (the stratum
// ladder), over the one degradation record and extrapolation body in
// internal/core. The batch rules are tested here against the
// supervisor-era reference bodies below; internal/stream holds the
// streaming counterpart.

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/tbr"
	"repro/internal/tbr/mem"
	"repro/internal/workload"
	"repro/internal/xmath/linalg"
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
	d := sel.Degrade(nil)
	if d.Degraded() {
		t.Fatalf("undegraded selection reported degraded: %+v", d)
	}
	if !reflect.DeepEqual(d.Plan, sel.Representatives) {
		t.Fatalf("representatives changed: %v", d.Plan)
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
	d := sel.Degrade(map[int]bool{0: true})
	if !d.Degraded() || len(d.Lost) != 0 {
		t.Fatalf("unexpected shape: %+v", d)
	}
	// Frames 1 (at 0.0) and 2 (at 0.1) are both 0.05 from the centroid;
	// the tie breaks on the lower frame index.
	if !reflect.DeepEqual(d.Plan, []int{1, 3}) {
		t.Fatalf("representatives = %v, want [1 3]", d.Plan)
	}
	if len(d.Substitutions) != 1 {
		t.Fatalf("substitutions: %+v", d.Substitutions)
	}
	s := d.Substitutions[0]
	if s.Group != 0 || s.Original != 0 || s.Substitute != 1 {
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
	d := sel.Degrade(map[int]bool{3: true, 4: true, 5: true})
	if !reflect.DeepEqual(d.Lost, []int{1}) {
		t.Fatalf("lost clusters = %v, want [1]", d.Lost)
	}
	if !reflect.DeepEqual(d.Plan, []int{0, -1}) {
		t.Fatalf("representatives = %v", d.Plan)
	}
	if d.CoveredFrames != 3 || d.Coverage() != 0.5 {
		t.Fatalf("coverage %d/%v", d.CoveredFrames, d.Coverage())
	}
	if len(d.Substitutions) != 0 {
		t.Fatalf("a lost cluster is not a substitution: %+v", d.Substitutions)
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
	all := sel.Degrade(map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true})
	if len(all.Lost) != 2 {
		t.Fatalf("lost clusters: %v", all.Lost)
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

// TestDegradeMatchesReference: over random quarantine sets on the
// hand-built selection and on a real hcr selection, the unified plan,
// degradation record and estimate equal the supervisor-era reference
// bit for bit. The one intended difference: a lost cluster is a loss,
// not also a substitution to frame -1 (whose NaN distance made the
// report unencodable), so the reference's lost-cluster substitutions
// are dropped before comparing.
func TestDegradeMatchesReference(t *testing.T) {
	tr, err := workload.Generate(workload.Profiles["hcr"], workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := funcsim.Run(context.Background(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	fs, err := core.BuildFeatures(ch, mcfg.Feature)
	if err != nil {
		t.Fatal(err)
	}
	hcr, err := core.Select(fs, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for name, sel := range map[string]*core.Selection{"synth": synthSelection(), "hcr": hcr} {
		n := sel.NumFrames()
		repStats := map[int]tbr.FrameStats{}
		for f := 0; f < n; f++ {
			repStats[f] = randomStats(rng, f)
		}
		sets := []map[int]bool{nil, {}}
		subs, losses := 0, 0
		for trial := 0; trial < 200; trial++ {
			p := rng.Float64()
			q := map[int]bool{}
			for f := 0; f < n; f++ {
				// Representatives are hit far more often than other
				// frames, so substitutions and losses both show up.
				if rng.Float64() < p*p || (rng.Float64() < p && sel.Representatives[sel.ClusterOf(f)] == f) {
					q[f] = true
				}
			}
			sets = append(sets, q)
		}
		for i, q := range sets {
			label := fmt.Sprintf("%s/set %d", name, i)
			ref := refDegrade(sel, q)
			d := sel.Degrade(q)
			if !reflect.DeepEqual(d.Plan, ref.Representatives) {
				t.Fatalf("%s: plan %v, reference %v", label, d.Plan, ref.Representatives)
			}
			var want []core.Substitution
			for _, s := range ref.Substitutions {
				if s.Substitute >= 0 {
					want = append(want, core.Substitution{Group: s.Cluster, Original: s.Original,
						Substitute: s.Substitute, OriginalDist: s.OriginalDist, SubstituteDist: s.SubstituteDist})
				}
			}
			if len(d.Substitutions) != len(want) {
				t.Fatalf("%s: substitutions %+v, reference %+v", label, d.Substitutions, want)
			}
			for k, s := range d.Substitutions {
				w := want[k]
				if s.Group != w.Group || s.Original != w.Original || s.Substitute != w.Substitute ||
					math.Float64bits(s.OriginalDist) != math.Float64bits(w.OriginalDist) ||
					math.Float64bits(s.SubstituteDist) != math.Float64bits(w.SubstituteDist) {
					t.Fatalf("%s: substitution %+v, reference %+v", label, s, w)
				}
			}
			if !reflect.DeepEqual(d.Lost, ref.LostClusters) || d.CoveredFrames != ref.CoveredFrames || d.Frames != n {
				t.Fatalf("%s: lost %v covered %d/%d, reference lost %v covered %d/%d",
					label, d.Lost, d.CoveredFrames, d.Frames, ref.LostClusters, ref.CoveredFrames, n)
			}
			subs += len(d.Substitutions)
			losses += len(d.Lost)
			got, gerr := d.Estimate(repStats)
			exp, eerr := ref.estimate(sel, repStats)
			if (gerr != nil) != (eerr != nil) || got != exp {
				t.Fatalf("%s: estimate %+v (%v), reference %+v (%v)", label, got, gerr, exp, eerr)
			}
		}
		if subs == 0 || losses == 0 {
			t.Fatalf("%s: the quarantine sets gave %d substitutions and %d losses; both must occur", name, subs, losses)
		}
	}
}

// randomStats is a frame's stats with every scaled field populated, so
// the estimate comparison covers Scale and ScaleF field by field.
func randomStats(rng *rand.Rand, frame int) tbr.FrameStats {
	v := func() uint64 { return rng.Uint64N(1 << 30) }
	c := func() mem.CacheStats { return mem.CacheStats{Accesses: v(), Hits: v(), Misses: v(), Writebacks: v()} }
	return tbr.FrameStats{
		Frame: frame, Cycles: v(), GeometryCycles: v(), RasterCycles: v(),
		VerticesShaded: v(), PrimsIn: v(), PrimsVisible: v(), VSInstrs: v(), TileEntries: v(),
		QuadsRasterized: v(), FragmentsShaded: v(), FragmentsOccluded: v(), FSInstrs: v(),
		TexAccesses: v(), BlendOps: v(), FramebufferLines: v(), VPBusyCycles: v(), FPBusyCycles: v(),
		QueueStallCycles: v(), VertexCache: c(), TextureCache: c(), TileCache: c(), L2: c(),
		DRAM: mem.DRAMStats{Accesses: v(), Reads: v(), Writes: v(), RowHits: v(), RowMisses: v(), BusyCycles: v()},
	}
}

// refSubstitution, refDegraded, refDegrade, refClosestSurvivor and
// refDegraded.estimate are the supervisor-era batch degradation
// (DegradedSelection, Degrade and its Estimate), kept as the reference
// the unified rules are held to.
type refSubstitution struct {
	Cluster, Original, Substitute int
	OriginalDist, SubstituteDist  float64
}

type refDegraded struct {
	Representatives []int
	Substitutions   []refSubstitution
	LostClusters    []int
	CoveredFrames   int
}

func refDegrade(sel *core.Selection, quarantined map[int]bool) *refDegraded {
	d := &refDegraded{Representatives: make([]int, len(sel.Representatives))}
	for c, rep := range sel.Representatives {
		if !quarantined[rep] {
			d.Representatives[c] = rep
			d.CoveredFrames += sel.Clusters.Sizes[c]
			continue
		}
		sub, subDist := refClosestSurvivor(sel, c, quarantined)
		d.Representatives[c] = sub
		d.Substitutions = append(d.Substitutions, refSubstitution{
			Cluster:        c,
			Original:       rep,
			Substitute:     sub,
			OriginalDist:   linalg.SquaredDistance(sel.Features.Vectors[rep], sel.Clusters.Centroids[c]),
			SubstituteDist: subDist,
		})
		if sub < 0 {
			d.LostClusters = append(d.LostClusters, c)
		} else {
			d.CoveredFrames += sel.Clusters.Sizes[c]
		}
	}
	return d
}

func refClosestSurvivor(sel *core.Selection, c int, quarantined map[int]bool) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for f, cl := range sel.Clusters.Assign {
		if cl != c || quarantined[f] {
			continue
		}
		if dist := linalg.SquaredDistance(sel.Features.Vectors[f], sel.Clusters.Centroids[c]); dist < bestDist {
			best, bestDist = f, dist
		}
	}
	if best < 0 {
		return -1, math.NaN()
	}
	return best, bestDist
}

func (d *refDegraded) estimate(sel *core.Selection, repStats map[int]tbr.FrameStats) (tbr.FrameStats, error) {
	if d.CoveredFrames == 0 {
		return tbr.FrameStats{}, fmt.Errorf("every cluster lost")
	}
	var total tbr.FrameStats
	for c, rep := range d.Representatives {
		if rep < 0 {
			continue
		}
		st, ok := repStats[rep]
		if !ok {
			return tbr.FrameStats{}, fmt.Errorf("missing stats for frame %d", rep)
		}
		scaled := st.Scale(uint64(sel.Clusters.Sizes[c]))
		total.Add(&scaled)
	}
	if n := sel.NumFrames(); d.CoveredFrames < n {
		total = total.ScaleF(float64(n) / float64(d.CoveredFrames))
	}
	total.Frame = -1
	return total, nil
}
