package megsim_test

import (
	"bytes"
	"context"
	"testing"

	"repro/megsim"
)

func testScale() megsim.Scale {
	return megsim.Scale{Width: 128, Height: 64, FrameDivisor: 20, DetailDivisor: 2}
}

func TestBenchmarksListed(t *testing.T) {
	bs := megsim.Benchmarks()
	if len(bs) != 8 {
		t.Fatalf("benchmarks = %v", bs)
	}
	for _, b := range bs {
		if _, err := megsim.GetBenchmark(b); err != nil {
			t.Errorf("%s: %v", b, err)
		}
	}
	if _, err := megsim.GetBenchmark("bogus"); err == nil {
		t.Fatal("accepted bogus alias")
	}
}

func TestSampleEndToEnd(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	run, err := megsim.SampleResilient(context.Background(), tr, megsim.DefaultConfig(), megsim.DefaultGPUConfig(), megsim.ResilienceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Representatives()) == 0 {
		t.Fatal("no representatives")
	}
	if run.ReductionFactor() <= 1 {
		t.Fatalf("reduction = %v", run.ReductionFactor())
	}
	if run.Estimate.Cycles == 0 {
		t.Fatal("empty estimate")
	}
	if len(run.RepresentativeStats) != len(run.Representatives()) {
		t.Fatal("stats/representatives mismatch")
	}
}

func TestSampleMatchesFullSimulation(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("jjo", testScale())
	run, err := megsim.SampleResilient(context.Background(), tr, megsim.DefaultConfig(), megsim.DefaultGPUConfig(), megsim.ResilienceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := megsim.SimulateFullParallelCtx(context.Background(), tr, megsim.DefaultGPUConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	actual := megsim.SumStats(full)
	acc := megsim.CompareAccuracy(&run.Estimate, &actual)
	if acc[megsim.MetricCycles] > 0.25 {
		t.Fatalf("cycles error %.1f%% too large for the public-API flow", acc.Percent(megsim.MetricCycles))
	}
}

func TestSimilarityMatrixFromRun(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("pvz", testScale())
	ch, err := megsim.Characterize(tr)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := megsim.SelectFrames(ch, megsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := megsim.SimilarityMatrix(sel.Features)
	if m.N() != tr.NumFrames() {
		t.Fatalf("matrix size %d, frames %d", m.N(), tr.NumFrames())
	}
	var buf bytes.Buffer
	if err := m.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty PGM")
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	path := t.TempDir() + "/trace.bin"
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := megsim.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.NumFrames() != tr.NumFrames() {
		t.Fatal("round trip mangled trace")
	}
}

func TestTBDRConfigThroughFacade(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("bbr1", testScale())
	gpu := megsim.DefaultGPUConfig()
	gpu.DeferredShading = true
	run, err := megsim.SampleResilient(context.Background(), tr, megsim.DefaultConfig(), gpu, megsim.ResilienceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := megsim.SampleResilient(context.Background(), tr, megsim.DefaultConfig(), megsim.DefaultGPUConfig(), megsim.ResilienceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Estimate.FragmentsShaded >= base.Estimate.FragmentsShaded {
		t.Fatalf("TBDR estimate shaded %d fragments, TBR %d — HSR had no effect",
			run.Estimate.FragmentsShaded, base.Estimate.FragmentsShaded)
	}
}

func TestFacadeWrappers(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())

	// Parallel full simulation matches the sequential one exactly.
	sim, err := megsim.NewSimulator(megsim.DefaultGPUConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	seq := sim.SimulateAll(nil)
	par, err := megsim.SimulateFullParallelCtx(context.Background(), tr, megsim.DefaultGPUConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("frame %d differs", i)
		}
	}

	// Presets resolve and validate.
	if len(megsim.GPUPresets()) < 4 {
		t.Fatal("missing presets")
	}
	cfg, err := megsim.GPUPreset("tbdr")
	if err != nil || !cfg.DeferredShading {
		t.Fatalf("tbdr preset: %+v, %v", cfg.DeferredShading, err)
	}
	if _, err := megsim.GPUPreset("bogus"); err == nil {
		t.Fatal("bogus preset accepted")
	}

	// Frame rendering through the facade.
	img, err := megsim.RenderFrame(tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != tr.Viewport.Width {
		t.Fatalf("image width %d", img.Bounds().Dx())
	}
}

func TestFacadeRecorderConstructs(t *testing.T) {
	rec := megsim.NewRecorder("facade", 64, 64)
	rec.BeginFrame()
	rec.EndFrame()
	if rec.NumFrames() != 1 {
		t.Fatalf("frames = %d", rec.NumFrames())
	}
}

func TestGenerateTraceCustomProfile(t *testing.T) {
	p, err := megsim.GetBenchmark("hcr")
	if err != nil {
		t.Fatal(err)
	}
	p.Alias = "hcr-custom"
	p.Frames = 60
	tr, err := megsim.GenerateTrace(p, testScale())
	if err != nil {
		t.Fatal(err)
	}
	// 60 frames / FrameDivisor 20 = 3, clamped up to the profile's 4
	// phases so every phase appears at least once.
	if tr.Name != "hcr-custom" || tr.NumFrames() != 4 {
		t.Fatalf("custom trace %s/%d", tr.Name, tr.NumFrames())
	}
}
