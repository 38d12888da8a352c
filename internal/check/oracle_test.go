package check

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gltrace"
	"repro/internal/tbr"
	"repro/internal/workload"
)

// testScale keeps oracle tests fast: a few dozen frames per seed.
var testScale = workload.Scale{Width: 128, Height: 64, FrameDivisor: 16, DetailDivisor: 2}

func smallTrace(t *testing.T, frames int) *gltrace.Trace {
	t.Helper()
	p := workload.RandomProfile(0xC0FFEE ^ uint64(frames))
	p.Frames = frames
	tr, err := workload.Generate(p, workload.Scale{Width: 96, Height: 48, FrameDivisor: 1, DetailDivisor: 2})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return tr
}

func testOracleConfig(seeds ...uint64) OracleConfig {
	return OracleConfig{Seeds: seeds, Scale: testScale}
}

func TestOracleBaseline(t *testing.T) {
	cfg := testOracleConfig(1)
	rep, err := RunOracle(cfg)
	if err != nil {
		t.Fatalf("RunOracle: %v", err)
	}
	if len(rep.Seeds) != 1 {
		t.Fatalf("got %d seed results, want 1", len(rep.Seeds))
	}
	sr := rep.Seeds[0]
	if !sr.RepIsolation {
		t.Error("representative standalone simulation differed from the full run (frame isolation broken)")
	}
	if len(sr.Violations) != 0 {
		t.Errorf("clean run recorded invariant violations: %v", sr.Violations)
	}
	if sr.Representatives <= 0 || sr.Representatives > sr.Frames {
		t.Errorf("implausible representative count %d of %d frames", sr.Representatives, sr.Frames)
	}
	// 12 rows: four Fig. 7 metrics + three energy phases + energy total
	// + the streaming probe's four "stream-*" metrics.
	if len(sr.Metrics) != 12 {
		t.Fatalf("got %d metric rows, want 12", len(sr.Metrics))
	}
	for _, m := range sr.Metrics {
		if m.Actual <= 0 {
			t.Errorf("metric %s: actual %v not positive", m.Name, m.Actual)
		}
		t.Logf("%-22s est %14.0f actual %14.0f err %6.3f%% (tol %4.1f%%) pass=%v",
			m.Name, m.Estimate, m.Actual, m.RelErr*100, m.Tolerance*100, m.Pass)
	}
	if !sr.Pass || !rep.Pass {
		t.Errorf("baseline oracle run failed the acceptance gate: %+v", sr.Metrics)
	}
	if rep.FaultsEnabled {
		t.Error("baseline report claims faults were enabled")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the oracle report goldens")

// TestOracleDeterminism runs the oracle twice per input and requires
// byte-identical reports, then compares the report against its golden
// under testdata: a clean seed and a faulted seed, so both the baseline
// and the fault-injected paths are pinned byte for byte. Regenerate
// deliberately with `go test ./internal/check -run TestOracleDeterminism
// -update` and review the diff.
func TestOracleDeterminism(t *testing.T) {
	faulted := testOracleConfig(11)
	faulted.Faults = tbr.FaultConfig{DRAMLatencyScale: 3, DropTileRate: 0.4}
	cases := []struct {
		golden string
		cfg    OracleConfig
	}{
		{"oracle_seed7.json", testOracleConfig(7)},
		{"oracle_seed11_faults.json", faulted},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			run := func() []byte {
				rep, err := RunOracle(tc.cfg)
				if err != nil {
					t.Fatalf("RunOracle: %v", err)
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatalf("WriteJSON: %v", err)
				}
				return buf.Bytes()
			}
			a, b := run(), run()
			if !bytes.Equal(a, b) {
				t.Fatalf("two identical oracle runs produced different reports:\n%s\n---\n%s", a, b)
			}
			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, a, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(a, want) {
				t.Errorf("oracle report differs from %s:\n%s", path, a)
			}
		})
	}
}

// TestOracleFaultsVisible asserts that each timing-perturbing fault
// class shifts the report's ground-truth numbers — injected faults must
// be reflected in the accuracy report, never silently absorbed.
func TestOracleFaultsVisible(t *testing.T) {
	base, err := RunOracle(testOracleConfig(11))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	row := func(r *Report, name string) MetricError {
		for _, m := range r.Seeds[0].Metrics {
			if m.Name == name {
				return m
			}
		}
		t.Fatalf("metric %s missing", name)
		return MetricError{}
	}
	cases := []struct {
		name   string
		faults tbr.FaultConfig
		metric string
	}{
		{"dram-latency", tbr.FaultConfig{DRAMLatencyScale: 3}, "cycles"},
		{"drop-tiles", tbr.FaultConfig{DropTileRate: 0.4}, "tile-cache-accesses"},
		{"duplicate-tiles", tbr.FaultConfig{DuplicateTileRate: 0.4}, "tile-cache-accesses"},
		{"cache-flush", tbr.FaultConfig{CacheFlushRate: 0.8}, "l2-accesses"},
		{"stall", tbr.FaultConfig{StallRate: 0.5, StallCycles: 2000}, "cycles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testOracleConfig(11)
			cfg.Faults = tc.faults
			rep, err := RunOracle(cfg)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if !rep.FaultsEnabled {
				t.Error("report does not flag faults as enabled")
			}
			got, want := row(rep, tc.metric).Actual, row(base, tc.metric).Actual
			if got == want {
				t.Errorf("fault %s left ground-truth %s unchanged (%v)", tc.name, tc.metric, got)
			}
			if len(rep.Seeds[0].Violations) != 0 {
				t.Errorf("timing fault tripped stats invariants: %v", rep.Seeds[0].Violations)
			}
		})
	}
}

// TestOracleGracefulDegradation runs the oracle under moderate faults
// and asserts accuracy degrades gracefully: the sampled estimate stays
// within a widened band of the (equally faulted) ground truth, because
// fault injection is keyed by frame and tile rather than execution
// order.
func TestOracleGracefulDegradation(t *testing.T) {
	cfg := testOracleConfig(11)
	cfg.Faults = tbr.FaultConfig{DropTileRate: 0.1, DuplicateTileRate: 0.1, StallRate: 0.2, StallCycles: 500}
	cfg.Tolerance = DefaultTolerance().Scaled(2)
	rep, err := RunOracle(cfg)
	if err != nil {
		t.Fatalf("RunOracle: %v", err)
	}
	sr := rep.Seeds[0]
	if !sr.RepIsolation {
		t.Error("fault injection broke frame isolation: standalone reps differ from the full run")
	}
	for _, m := range sr.Metrics {
		t.Logf("%-22s err %6.3f%% (tol %4.1f%%)", m.Name, m.RelErr*100, m.Tolerance*100)
		if !m.Pass {
			t.Errorf("metric %s degraded beyond 2x band: err %.3f%% > %.1f%%", m.Name, m.RelErr*100, m.Tolerance*100)
		}
	}
}

// TestOracleCorruptStats drives the one fault class whose purpose is
// tripping the invariant layer, end to end through the oracle.
func TestOracleCorruptStats(t *testing.T) {
	cfg := testOracleConfig(3)
	cfg.Faults = tbr.FaultConfig{CorruptStats: true}
	rep, err := RunOracle(cfg)
	if err != nil {
		t.Fatalf("RunOracle: %v", err)
	}
	sr := rep.Seeds[0]
	if len(sr.Violations) == 0 {
		t.Fatal("CorruptStats did not trip any invariant through the oracle")
	}
	if sr.Pass || rep.Pass {
		t.Error("report passed despite invariant violations")
	}
}

func TestOracleRequiresFrameIsolation(t *testing.T) {
	cfg := testOracleConfig(1)
	cfg.GPU = tbr.DefaultConfig()
	cfg.GPU.FlushCachesPerFrame = false
	if _, err := RunOracle(cfg); err == nil {
		t.Fatal("oracle accepted a configuration without frame isolation")
	}
}

func TestToleranceScaled(t *testing.T) {
	tol := Tolerance{Cycles: 0.01, DRAM: 0.02, L2: 0.03, TileCache: 0.04, Energy: 0.05}.Scaled(2)
	want := Tolerance{Cycles: 0.02, DRAM: 0.04, L2: 0.06, TileCache: 0.08, Energy: 0.10}
	if tol != want {
		t.Errorf("Scaled(2) = %+v, want %+v", tol, want)
	}
}

func TestReportHelpers(t *testing.T) {
	rep := &Report{Seeds: []SeedResult{
		{Metrics: []MetricError{{Name: "cycles", RelErr: 0.02}}},
		{Metrics: []MetricError{{Name: "cycles", RelErr: 0.05}}},
	}}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
}
