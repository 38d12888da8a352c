package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/funcsim"
	"repro/internal/obs"
	"repro/internal/shader"
	"repro/internal/tbr"
	"repro/internal/tbr/mem"
	"repro/internal/xmath/stats"
)

// syntheticResult builds a funcsim.Result with controlled structure:
// `phases` blocks of `perPhase` frames; frames within a block share a
// shader usage pattern (plus slight ramp), blocks differ strongly.
func syntheticResult(phases, perPhase, numVS, numFS int) *funcsim.Result {
	res := &funcsim.Result{Trace: "synthetic"}
	for i := 0; i < numVS; i++ {
		res.VSStatic = append(res.VSStatic, shader.Cost{Instructions: 10 + i, ALUOps: 10 + i})
	}
	for i := 0; i < numFS; i++ {
		res.FSStatic = append(res.FSStatic, shader.Cost{
			Instructions: 20 + i, ALUOps: 17 + i, TexSamples: 3, TexMemAccesses: 12,
		})
	}
	frame := 0
	for ph := 0; ph < phases; ph++ {
		for i := 0; i < perPhase; i++ {
			p := funcsim.FrameProfile{
				Frame:   frame,
				VSCount: make([]uint64, numVS),
				FSCount: make([]uint64, numFS),
			}
			// Each phase drives a distinct pair of shaders.
			p.VSCount[ph%numVS] = uint64(1000*(ph+1) + i)
			p.FSCount[ph%numFS] = uint64(5000*(ph+1) + 10*i)
			p.PrimsIn = uint64(300*(ph+1) + i)
			p.PrimsVisible = uint64(250*(ph+1) + i)
			p.Fragments = p.FSCount[ph%numFS]
			res.Profiles = append(res.Profiles, p)
			frame++
		}
	}
	return res
}

func TestBuildFeaturesShape(t *testing.T) {
	res := syntheticResult(3, 20, 4, 5)
	fs, err := BuildFeatures(res, DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Vectors) != 60 {
		t.Fatalf("rows = %d", len(fs.Vectors))
	}
	if fs.dims() != 4+5+1 {
		t.Fatalf("dims = %d", fs.dims())
	}
	if !fs.HasPrim {
		t.Fatal("PRIM missing")
	}
}

func TestBuildFeaturesGroupWeighting(t *testing.T) {
	res := syntheticResult(2, 10, 3, 3)
	fs, err := BuildFeatures(res, DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Group sums over the whole matrix must be in phase-weight ratio
	// (each group normalizes to weight * N).
	var vs, fsg, prim float64
	for _, row := range fs.Vectors {
		for j := 0; j < 3; j++ {
			vs += row[j]
		}
		for j := 3; j < 6; j++ {
			fsg += row[j]
		}
		prim += row[6]
	}
	n := float64(len(fs.Vectors))
	if math.Abs(vs-0.108*n) > 1e-9 || math.Abs(fsg-0.745*n) > 1e-9 || math.Abs(prim-0.147*n) > 1e-9 {
		t.Fatalf("group masses %v/%v/%v, want %v/%v/%v", vs, fsg, prim, 0.108*n, 0.745*n, 0.147*n)
	}
}

func TestBuildFeaturesTextureWeightingMatters(t *testing.T) {
	res := syntheticResult(2, 10, 2, 2)
	on, _ := BuildFeatures(res, DefaultFeatureConfig())
	cfgOff := DefaultFeatureConfig()
	cfgOff.UseTextureWeights = false
	off, _ := BuildFeatures(res, cfgOff)
	// With weighting the FS group uses Instructions-TexSamples+TexMem =
	// 20+i-3+12 instead of 20+i; relative shader weights inside the
	// group change, so normalized vectors must differ somewhere.
	same := true
	for f := range on.Vectors {
		for j := range on.Vectors[f] {
			if math.Abs(on.Vectors[f][j]-off.Vectors[f][j]) > 1e-12 {
				same = false
			}
		}
	}
	if same {
		t.Fatal("texture weighting changed nothing")
	}
}

func TestBuildFeaturesNoPrim(t *testing.T) {
	res := syntheticResult(2, 5, 2, 2)
	cfg := DefaultFeatureConfig()
	cfg.IncludePrim = false
	fs, err := BuildFeatures(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fs.dims() != 4 || fs.HasPrim {
		t.Fatalf("dims = %d, HasPrim = %v", fs.dims(), fs.HasPrim)
	}
}

func TestBuildFeaturesEmpty(t *testing.T) {
	if _, err := BuildFeatures(&funcsim.Result{}, DefaultFeatureConfig()); err == nil {
		t.Fatal("accepted empty result")
	}
}

func TestSelectFindsPhaseClusters(t *testing.T) {
	res := syntheticResult(4, 50, 4, 6)
	fs, err := BuildFeatures(res, DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(fs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Clusters.K < 4 || sel.Clusters.K > 20 {
		t.Fatalf("k = %d for 4 planted phases", sel.Clusters.K)
	}
	if sel.NumRepresentatives() != sel.Clusters.K {
		t.Fatal("one representative per cluster expected")
	}
	if rf := sel.ReductionFactor(); rf < 10 {
		t.Fatalf("reduction factor %v too small", rf)
	}
	// Clusters may split a phase's internal ramp into sub-clusters, but
	// must never MIX frames of different planted phases: phases are far
	// apart compared to within-phase variation.
	clusterPhase := map[int]int{}
	for f := 0; f < sel.NumFrames(); f++ {
		ph := f / 50
		c := sel.ClusterOf(f)
		if prev, ok := clusterPhase[c]; ok && prev != ph {
			t.Fatalf("cluster %d mixes phases %d and %d", c, prev, ph)
		}
		clusterPhase[c] = ph
	}
}

func TestSelectDeterministic(t *testing.T) {
	res := syntheticResult(3, 30, 3, 3)
	fs, _ := BuildFeatures(res, DefaultFeatureConfig())
	a, err := Select(fs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Select(fs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Clusters.K != b.Clusters.K {
		t.Fatal("selection not deterministic")
	}
	for i := range a.Representatives {
		if a.Representatives[i] != b.Representatives[i] {
			t.Fatal("representatives not deterministic")
		}
	}
}

// ExplorationKey leaves out exactly what Explore never reads: configs
// that differ only in threshold or registry share a key, and one
// exploration cut at each threshold is what Select returns.
func TestExplorationKey(t *testing.T) {
	fs, err := BuildFeatures(syntheticResult(3, 30, 3, 3), DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	ex, err := Explore(fs, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{0.70, 0.85, 0.95} {
		cfg := base
		cfg.Search.Threshold = th
		cfg.Search.Obs = obs.New()
		if ExplorationKey(cfg) != ExplorationKey(base) {
			t.Fatalf("T=%v: key depends on threshold or registry", th)
		}
		want, err := Select(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Cut(fs, ex, th)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("T=%v: cut of a shared exploration differs from Select", th)
		}
	}
	for name, mutate := range map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed++ },
		"max-k":    func(c *Config) { c.Search.MaxK = 7 },
		"restarts": func(c *Config) { c.Search.Restarts++ },
		"feature":  func(c *Config) { c.Feature.IncludePrim = false },
	} {
		cfg := base
		mutate(&cfg)
		if ExplorationKey(cfg) == ExplorationKey(base) {
			t.Errorf("key ignores %s", name)
		}
	}
}

func TestEstimateScalesByClusterSizes(t *testing.T) {
	res := syntheticResult(2, 10, 2, 2)
	fs, _ := BuildFeatures(res, DefaultFeatureConfig())
	sel, err := Select(fs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	repStats := map[int]tbr.FrameStats{}
	for _, r := range sel.Representatives {
		repStats[r] = tbr.FrameStats{Frame: r, Cycles: 100, DRAM: dramStats(7)}
	}
	est, err := sel.Estimate(repStats)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cycles != 100*uint64(sel.NumFrames()) {
		t.Fatalf("estimated cycles = %d, want %d", est.Cycles, 100*sel.NumFrames())
	}
	if est.DRAM.Accesses != 7*uint64(sel.NumFrames()) {
		t.Fatalf("estimated DRAM = %d", est.DRAM.Accesses)
	}
}

func TestEstimateMissingRepresentative(t *testing.T) {
	res := syntheticResult(2, 10, 2, 2)
	fs, _ := BuildFeatures(res, DefaultFeatureConfig())
	sel, _ := Select(fs, DefaultConfig())
	if _, err := sel.Estimate(map[int]tbr.FrameStats{}); err == nil {
		t.Fatal("accepted missing representative stats")
	}
}

func TestEstimateFromFullRunPerfectOnConstantFrames(t *testing.T) {
	// If every frame in a cluster is identical, the estimate is exact.
	res := syntheticResult(3, 20, 3, 3)
	// Flatten the within-phase ramps so frames repeat exactly.
	for i := range res.Profiles {
		ph := i / 20
		res.Profiles[i].VSCount[ph%3] = uint64(1000 * (ph + 1))
		res.Profiles[i].FSCount[ph%3] = uint64(5000 * (ph + 1))
		res.Profiles[i].PrimsIn = uint64(300 * (ph + 1))
		res.Profiles[i].PrimsVisible = uint64(250 * (ph + 1))
	}
	fs, _ := BuildFeatures(res, DefaultFeatureConfig())
	sel, err := Select(fs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	full := make([]tbr.FrameStats, 60)
	for i := range full {
		ph := i / 20
		full[i] = tbr.FrameStats{Frame: i, Cycles: uint64(1000 * (ph + 1)), DRAM: dramStats(uint64(10 * (ph + 1)))}
	}
	est, err := sel.EstimateFromFullRun(full)
	if err != nil {
		t.Fatal(err)
	}
	actual := SumStats(full)
	acc := EvaluateAccuracy(&est, &actual)
	if acc[MetricCycles] > 1e-12 || acc[MetricDRAM] > 1e-12 {
		t.Fatalf("expected exact estimate, got %v", acc)
	}
}

func TestAccuracyMetrics(t *testing.T) {
	est := tbr.FrameStats{Cycles: 101, DRAM: dramStats(99)}
	act := tbr.FrameStats{Cycles: 100, DRAM: dramStats(100)}
	acc := EvaluateAccuracy(&est, &act)
	if math.Abs(acc[MetricCycles]-0.01) > 1e-12 {
		t.Fatalf("cycles error = %v", acc[MetricCycles])
	}
	if math.Abs(acc.Percent(MetricDRAM)-1) > 1e-9 {
		t.Fatalf("dram error %% = %v", acc.Percent(MetricDRAM))
	}
	if MetricCycles.String() != "cycles" || len(Metrics()) != int(numMetrics) {
		t.Fatal("metric metadata wrong")
	}
}

func TestCorrelationStudyDetectsDrivers(t *testing.T) {
	res := syntheticResult(4, 40, 4, 4)
	// Target strongly driven by the FS counts.
	target := make([]float64, len(res.Profiles))
	for i := range res.Profiles {
		var fsum float64
		for s, c := range res.Profiles[i].FSCount {
			fsum += float64(c) * float64(res.FSStatic[s].Instructions)
		}
		target[i] = 2*fsum + 1000
	}
	corr, err := CorrelationStudy(res, target)
	if err != nil {
		t.Fatal(err)
	}
	if corr.FSCV < 0.99 {
		t.Fatalf("FSCV correlation = %v, want ~1 (target is a linear function of it)", corr.FSCV)
	}
	if corr.VSCV < 0 || corr.VSCV > 1 || math.Abs(corr.Prim) > 1 {
		t.Fatalf("correlations out of range: %+v", corr)
	}
}

func TestCorrelationStudyValidation(t *testing.T) {
	res := syntheticResult(2, 10, 2, 2)
	if _, err := CorrelationStudy(res, []float64{1, 2}); err == nil {
		t.Fatal("accepted mismatched target length")
	}
}

func TestRandomSubsamplePartition(t *testing.T) {
	rng := stats.NewRNG(5)
	segs, err := randomSubsample(100, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, s := range segs {
		if s.Size <= 0 {
			t.Fatalf("segment %d empty", i)
		}
		lo := i * 100 / 7
		hi := (i + 1) * 100 / 7
		if s.Rep < lo || s.Rep >= hi {
			t.Fatalf("segment %d rep %d outside [%d,%d)", i, s.Rep, lo, hi)
		}
		total += s.Size
	}
	if total != 100 {
		t.Fatalf("sizes sum to %d", total)
	}
}

func TestRandomSubsampleValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, bad := range [][2]int{{0, 1}, {10, 0}, {5, 6}} {
		if _, err := randomSubsample(bad[0], bad[1], rng); err == nil {
			t.Fatalf("accepted n=%d k=%d", bad[0], bad[1])
		}
	}
}

func TestSubsampleEstimateExactWhenFullSampling(t *testing.T) {
	perFrame := []float64{5, 7, 9, 11}
	segs, _ := randomSubsample(4, 4, stats.NewRNG(1))
	if got := subsampleEstimate(perFrame, segs); got != 32 {
		t.Fatalf("full sampling estimate = %v, want 32", got)
	}
}

func TestSubsampleMaxErrorDecreasesWithK(t *testing.T) {
	rng := stats.NewRNG(9)
	perFrame := make([]float64, 500)
	for i := range perFrame {
		perFrame[i] = 1000 + 200*math.Sin(float64(i)/30) + rng.Norm(0, 50)
	}
	small, err := SubsampleMaxError(perFrame, 5, 300, 0.95, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	large, err := SubsampleMaxError(perFrame, 100, 300, 0.95, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if large >= small {
		t.Fatalf("error did not shrink: k=5 -> %v, k=100 -> %v", small, large)
	}
}

func TestFramesNeededSanity(t *testing.T) {
	rng := stats.NewRNG(13)
	perFrame := make([]float64, 400)
	for i := range perFrame {
		perFrame[i] = 1000 + rng.Norm(0, 300)
	}
	k, err := FramesNeeded(perFrame, 0.02, 200, 0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	if k < 2 || k > 400 {
		t.Fatalf("frames needed = %d", k)
	}
	// A looser target can only need fewer or equal frames.
	k2, err := FramesNeeded(perFrame, 0.2, 200, 0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	if k2 > k {
		t.Fatalf("looser target needs more frames: %d vs %d", k2, k)
	}
}

func TestFramesNeededImpossibleTarget(t *testing.T) {
	rng := stats.NewRNG(17)
	perFrame := make([]float64, 50)
	for i := range perFrame {
		perFrame[i] = rng.Range(0, 1000) // wild variance
	}
	k, err := FramesNeeded(perFrame, 0, 100, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	if k != 50 {
		t.Fatalf("zero-error target should need all frames, got %d", k)
	}
}

func dramStats(accesses uint64) mem.DRAMStats {
	return mem.DRAMStats{Accesses: accesses}
}

func TestPeriodicSamplePartition(t *testing.T) {
	segs, err := periodicSample(100, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, s := range segs {
		lo := i * 100 / 7
		hi := (i + 1) * 100 / 7
		if s.Rep < lo || s.Rep >= hi {
			t.Fatalf("segment %d rep %d outside [%d,%d)", i, s.Rep, lo, hi)
		}
		total += s.Size
	}
	if total != 100 {
		t.Fatalf("sizes sum to %d", total)
	}
	// Deterministic for the same offset, different for another offset.
	again, _ := periodicSample(100, 7, 3)
	for i := range segs {
		if segs[i] != again[i] {
			t.Fatal("PeriodicSample not deterministic")
		}
	}
	other, _ := periodicSample(100, 7, 9)
	same := true
	for i := range segs {
		if segs[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("offset had no effect")
	}
}

func TestPeriodicSampleValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {10, 0}, {5, 6}} {
		if _, err := periodicSample(bad[0], bad[1], 0); err == nil {
			t.Fatalf("accepted n=%d k=%d", bad[0], bad[1])
		}
	}
}

func TestPeriodicMaxErrorDecreasesWithK(t *testing.T) {
	rng := stats.NewRNG(21)
	perFrame := make([]float64, 600)
	for i := range perFrame {
		perFrame[i] = 1000 + 300*math.Sin(float64(i)/40) + rng.Norm(0, 30)
	}
	small, err := PeriodicMaxError(perFrame, 4, 50, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	large, err := PeriodicMaxError(perFrame, 120, 50, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if large >= small {
		t.Fatalf("periodic error did not shrink: k=4 -> %v, k=120 -> %v", small, large)
	}
}

func TestPeriodicFullSamplingExact(t *testing.T) {
	perFrame := []float64{5, 7, 9, 11}
	e, err := PeriodicMaxError(perFrame, 4, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("full periodic sampling error = %v, want 0", e)
	}
}
