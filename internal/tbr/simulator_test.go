package tbr

import (
	"testing"

	"repro/internal/workload"
)

// testTrace generates a short hcr trace shared by the tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	return cfg
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.FrequencyMHz != 600 || cfg.TileSize != 32 {
		t.Fatalf("frequency/tile: %d/%d", cfg.FrequencyMHz, cfg.TileSize)
	}
	if cfg.NumVertexProcessors != 4 || cfg.NumFragmentProcessors != 4 {
		t.Fatal("processor counts")
	}
	if cfg.VertexQueueEntries != 16 || cfg.FragmentQueueEntries != 64 || cfg.ColorQueueEntries != 64 {
		t.Fatal("queue entries")
	}
	if cfg.VertexCache.SizeBytes != 4<<10 || cfg.TextureCache.SizeBytes != 8<<10 ||
		cfg.TileCache.SizeBytes != 32<<10 || cfg.L2.SizeBytes != 256<<10 {
		t.Fatal("cache sizes")
	}
	if cfg.L2.Banks != 8 || cfg.L2.Latency != 18 {
		t.Fatal("L2 geometry")
	}
	if cfg.NumTextureCaches != 4 || cfg.EarlyZInFlight != 8 {
		t.Fatal("texture caches / early-z")
	}
	if cfg.DRAM.Channels != 2 || cfg.DRAM.LineBytes != 64 || cfg.DRAM.BytesPerCycle != 4 {
		t.Fatal("DRAM config")
	}
	if err := cfg.validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidateCatchesErrors(t *testing.T) {
	mutations := map[string]func(*Config){
		"odd tile":     func(c *Config) { c.TileSize = 15 },
		"zero vps":     func(c *Config) { c.NumVertexProcessors = 0 },
		"zero fq":      func(c *Config) { c.FragmentQueueEntries = 0 },
		"zero ez":      func(c *Config) { c.EarlyZInFlight = 0 },
		"zero tcaches": func(c *Config) { c.NumTextureCaches = 0 },
		"bad cache":    func(c *Config) { c.L2.SizeBytes = 100 },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestSimulateFrameProducesActivity(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	sim, err := New(testConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.SimulateFrame(50)
	if st.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	if st.VerticesShaded == 0 || st.PrimsIn == 0 || st.PrimsVisible == 0 {
		t.Fatalf("no geometry activity: %+v", st)
	}
	if st.QuadsRasterized == 0 || st.FragmentsShaded == 0 {
		t.Fatalf("no raster activity: %+v", st)
	}
	if st.L2.Accesses == 0 || st.DRAM.Accesses == 0 || st.TileCache.Accesses == 0 {
		t.Fatalf("no memory activity: %+v", st)
	}
	if st.Cycles != st.GeometryCycles+st.RasterCycles {
		t.Fatalf("cycles %d != geometry %d + raster %d", st.Cycles, st.GeometryCycles, st.RasterCycles)
	}
	if st.VSInstrs == 0 || st.FSInstrs == 0 {
		t.Fatal("no shader instructions")
	}
	if st.IPC() <= 0 || st.IPC() > 8 {
		t.Fatalf("IPC = %v out of plausible range", st.IPC())
	}
}

func TestFrameIsolation(t *testing.T) {
	// With FlushCachesPerFrame, simulating frame k directly must give
	// exactly the same stats as simulating it after other frames —
	// the property MEGsim needs to simulate only representatives.
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	simA, err := New(testConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	direct := simA.SimulateFrame(42)

	simB, err := New(testConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 42; f++ {
		simB.SimulateFrame(f)
	}
	inSequence := simB.SimulateFrame(42)

	if direct != inSequence {
		t.Fatalf("frame 42 differs in isolation vs in sequence:\n%+v\nvs\n%+v", direct, inSequence)
	}
}

func TestSimulateDeterminism(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["jjo"], workload.TestScale)
	s1, _ := New(testConfig(), tr)
	s2, _ := New(testConfig(), tr)
	for _, f := range []int{0, 10, 100} {
		a, b := s1.SimulateFrame(f), s2.SimulateFrame(f)
		if a != b {
			t.Fatalf("frame %d not deterministic", f)
		}
	}
}

func TestSimulateAllOrdersFrames(t *testing.T) {
	p := workload.Profiles["hcr"]
	tr := workload.MustGenerate(p, workload.Scale{Width: 96, Height: 48, FrameDivisor: 100, DetailDivisor: 2})
	sim, _ := New(testConfig(), tr)
	calls := 0
	all := sim.SimulateAll(func(int) { calls++ })
	if len(all) != tr.NumFrames() || calls != tr.NumFrames() {
		t.Fatalf("got %d stats, %d callbacks, want %d", len(all), calls, tr.NumFrames())
	}
	for i, st := range all {
		if st.Frame != i {
			t.Fatalf("stats[%d].Frame = %d", i, st.Frame)
		}
		if st.Cycles == 0 {
			t.Fatalf("frame %d has zero cycles", i)
		}
	}
}

func TestHeavierFramesCostMoreCycles(t *testing.T) {
	// A 3D racing frame must cost far more than a 2D menu frame.
	tr := workload.MustGenerate(workload.Profiles["bbr1"], workload.TestScale)
	sim, _ := New(testConfig(), tr)
	menu := sim.SimulateFrame(0)                  // menu phase opens the sequence
	race := sim.SimulateFrame(tr.NumFrames() / 2) // mid-sequence gameplay
	if race.PrimsVisible <= menu.PrimsVisible {
		t.Skipf("mid frame not heavier: prims %d vs %d", race.PrimsVisible, menu.PrimsVisible)
	}
	if race.Cycles <= menu.Cycles {
		t.Fatalf("3D frame (%d prims, %d cycles) not slower than menu (%d prims, %d cycles)",
			race.PrimsVisible, race.Cycles, menu.PrimsVisible, menu.Cycles)
	}
}

func TestEarlyZCullsOverdraw(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["bbr1"], workload.TestScale)
	sim, _ := New(testConfig(), tr)
	var occluded uint64
	for f := 0; f < 10; f++ {
		st := sim.SimulateFrame(tr.NumFrames()/2 + f)
		occluded += st.FragmentsOccluded
	}
	if occluded == 0 {
		t.Fatal("no fragments ever occluded — early-Z model inert")
	}
}

func TestScaleAndAdd(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	sim, _ := New(testConfig(), tr)
	st := sim.SimulateFrame(5)
	scaled := st.Scale(3)
	if scaled.Cycles != 3*st.Cycles || scaled.DRAM.Accesses != 3*st.DRAM.Accesses {
		t.Fatal("Scale wrong")
	}
	var sum FrameStats
	sum.Add(&st)
	sum.Add(&st)
	sum.Add(&st)
	sum.Frame = scaled.Frame
	if sum != scaled {
		t.Fatalf("Add x3 != Scale(3):\n%+v\nvs\n%+v", sum, scaled)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	bad := DefaultConfig()
	bad.TileSize = 0
	if _, err := New(bad, tr); err == nil {
		t.Fatal("accepted invalid config")
	}
	tr.Name = ""
	if _, err := New(DefaultConfig(), tr); err == nil {
		t.Fatal("accepted invalid trace")
	}
}

func TestSimulateFramePanicsOutOfRange(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	sim, _ := New(testConfig(), tr)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sim.SimulateFrame(tr.NumFrames())
}

func TestTextureTrafficReachesMemory(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["asp"], workload.TestScale)
	sim, _ := New(testConfig(), tr)
	st := sim.SimulateFrame(tr.NumFrames() / 2)
	if st.TexAccesses == 0 {
		t.Fatal("no texture accesses in a 3D frame")
	}
	if st.TextureCache.Accesses == 0 {
		t.Fatal("texture caches never accessed")
	}
	if st.TextureCache.Misses == 0 {
		t.Fatal("texture caches never missed (cold frame must miss)")
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) < 4 {
		t.Fatalf("presets = %v", names)
	}
	for _, n := range names {
		cfg, err := Preset(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.validate(); err != nil {
			t.Errorf("preset %s invalid: %v", n, err)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	// The preset machines must order sensibly on a real frame.
	tr := workload.MustGenerate(workload.Profiles["bbr1"], workload.TestScale)
	frame := tr.NumFrames() / 2
	cycles := map[string]uint64{}
	for _, n := range []string{"lowend", "mali450", "highend"} {
		cfg, _ := Preset(n)
		sim, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		cycles[n] = sim.SimulateFrame(frame).Cycles
	}
	// Wall-clock per frame must improve with the bigger machine.
	low, _ := Preset("lowend")
	mid, _ := Preset("mali450")
	high, _ := Preset("highend")
	tl := low.FrameSeconds(cycles["lowend"])
	tm := mid.FrameSeconds(cycles["mali450"])
	th := high.FrameSeconds(cycles["highend"])
	if !(tl > tm && tm > th) {
		t.Fatalf("frame time not monotone across presets: %.5f / %.5f / %.5f", tl, tm, th)
	}
}

func TestUtilizationStats(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["bbr1"], workload.TestScale)
	sim, err := New(DefaultConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.SimulateFrame(tr.NumFrames() / 2)
	if st.VPBusyCycles == 0 || st.FPBusyCycles == 0 {
		t.Fatal("no busy cycles recorded")
	}
	vu := st.VPUtilization(4)
	fu := st.FPUtilization(4)
	if vu <= 0 || vu > 1 || fu <= 0 || fu > 1 {
		t.Fatalf("utilization out of range: vp=%v fp=%v", vu, fu)
	}
	// Fragment work dominates these scenes.
	if fu <= vu {
		t.Fatalf("FP utilization %v should exceed VP %v", fu, vu)
	}
	if st.VPUtilization(0) != 0 || (&FrameStats{}).FPUtilization(4) != 0 {
		t.Fatal("degenerate utilization should be 0")
	}
}
