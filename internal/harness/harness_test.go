package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tbr"
	"repro/internal/workload"
	"repro/megsim"
)

// testStudy builds a study over two small benchmarks.
func testStudy(t *testing.T) *Study {
	t.Helper()
	s := NewStudy(TestOptions())
	s.Aliases = []string{"hcr", "jjo"}
	return s
}

func TestRunEndToEnd(t *testing.T) {
	r, err := Run(workload.Profiles["hcr"], TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Selection.NumRepresentatives() == 0 {
		t.Fatal("no representatives selected")
	}
	if r.Selection.NumRepresentatives() >= r.Trace.NumFrames() {
		t.Fatal("no reduction achieved")
	}
	if len(r.Full) != r.Trace.NumFrames() {
		t.Fatal("ground truth incomplete")
	}
	// Estimates must be in the ballpark of the truth even on the tiny
	// test workload (loose bound; the experiment scale is tighter).
	for _, m := range core.Metrics() {
		if r.Accuracy[m] > 0.25 {
			t.Errorf("%v error %.1f%% too large", m, r.Accuracy.Percent(m))
		}
	}
	if r.FullSimTime <= 0 || r.SampledSimTime <= 0 || r.FuncSimTime <= 0 {
		t.Fatal("timings not recorded")
	}
}

// TestSampledOnlyMatchesFullStudyEstimate: the study's estimate is the
// one a user gets from the sampled-only public flow
// (megsim.SampleResilient) on the same trace and configuration.
func TestSampledOnlyMatchesFullStudyEstimate(t *testing.T) {
	opts := TestOptions()
	full, err := Run(workload.Profiles["jjo"], opts)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := megsim.SampleResilient(context.Background(), full.Trace, opts.MEGsim, opts.GPU, megsim.ResilienceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Estimate != sampled.Estimate {
		t.Fatal("estimates differ between full study and sampled-only run")
	}
}

func TestTileWorkersOptionDoesNotAffectResults(t *testing.T) {
	// Any tile-worker count >= 1 must produce identical estimates.
	one := TestOptions()
	one.GPU.TileWorkers = 1
	four := TestOptions()
	four.GPU.TileWorkers = 4
	a, err := Run(workload.Profiles["hcr"], one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(workload.Profiles["hcr"], four)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate {
		t.Fatalf("estimate depends on tile-worker count:\n1: %+v\n4: %+v", a.Estimate, b.Estimate)
	}
}

func TestStudyCachesResults(t *testing.T) {
	s := testStudy(t)
	a, err := s.Result("hcr")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Result("hcr")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("study did not cache the result")
	}
	if _, err := s.Result("nope"); err == nil {
		t.Fatal("accepted unknown alias")
	}
}

func TestStudyTables(t *testing.T) {
	s := testStudy(t)

	t2, err := s.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if t2.NumRows() != 2 {
		t.Fatalf("Table II rows = %d", t2.NumRows())
	}

	t3, err := s.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if t3.NumRows() != 3 { // 2 benchmarks + average
		t.Fatalf("Table III rows = %d", t3.NumRows())
	}

	f3, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f3.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "VSCV") {
		t.Fatal("Fig 3 table missing headers")
	}

	f4, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if f4.NumRows() != 3 {
		t.Fatalf("Fig 4 rows = %d", f4.NumRows())
	}

	f7, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if f7.NumRows() != 3 {
		t.Fatalf("Fig 7 rows = %d", f7.NumRows())
	}

	sp, err := s.SpeedupTable()
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumRows() != 2 {
		t.Fatalf("speedup rows = %d", sp.NumRows())
	}
}

func TestStudyFig5AndFig6Images(t *testing.T) {
	s := testStudy(t)
	var pgm bytes.Buffer
	if err := s.Fig5("hcr", 50, &pgm); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(pgm.Bytes(), []byte("P5\n50 50\n")) {
		t.Fatalf("Fig 5 header: %q", pgm.Bytes()[:10])
	}
	var ppm bytes.Buffer
	if err := s.Fig6("hcr", 50, &ppm); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ppm.Bytes(), []byte("P6\n50 50\n")) {
		t.Fatalf("Fig 6 header: %q", ppm.Bytes()[:10])
	}
}

func TestStudyTableIV(t *testing.T) {
	s := testStudy(t)
	cfg := DefaultTableIVConfig()
	cfg.RandomTrials = 100
	cfg.MEGsimTrials = 5
	tbl, rows, err := s.TableIV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || tbl.NumRows() != 3 {
		t.Fatalf("rows = %d/%d", len(rows), tbl.NumRows())
	}
	for _, row := range rows {
		if row.RandomFrames < 1 {
			t.Fatalf("%s: random frames = %d", row.Alias, row.RandomFrames)
		}
		if row.MEGsimFrames < 1 {
			t.Fatalf("%s: megsim frames = %d", row.Alias, row.MEGsimFrames)
		}
		// Random sub-sampling should need at least as many frames as
		// MEGsim on structured workloads.
		if row.ReductionFactor < 1 {
			t.Logf("%s: reduction %.1fx < 1 (acceptable on tiny test workloads)", row.Alias, row.ReductionFactor)
		}
	}
}

func TestGeoMeanReduction(t *testing.T) {
	s := testStudy(t)
	g, err := s.GeoMeanReduction()
	if err != nil {
		t.Fatal(err)
	}
	if g <= 1 {
		t.Fatalf("geomean reduction = %v", g)
	}
}

func TestClusterSummary(t *testing.T) {
	s := testStudy(t)
	line, err := s.ClusterSummary("hcr")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "hcr: k=") {
		t.Fatalf("summary = %q", line)
	}
}

func TestVaryGPUConfig(t *testing.T) {
	s := testStudy(t)
	gpu := tbr.DefaultConfig()
	gpu.L2.SizeBytes = 64 << 10 // smaller L2
	est, actual, err := s.VaryGPUConfig("hcr", gpu, true)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cycles == 0 || actual.Cycles == 0 {
		t.Fatal("empty results")
	}
	acc := core.EvaluateAccuracy(&est, &actual)
	if acc[core.MetricCycles] > 0.25 {
		t.Fatalf("design-space estimate error %.1f%% too large", acc.Percent(core.MetricCycles))
	}
	// The baseline selection must transfer: smaller L2 means more DRAM
	// accesses than the default config's ground truth.
	base, err := s.Result("hcr")
	if err != nil {
		t.Fatal(err)
	}
	if actual.DRAM.Accesses <= base.FullTotals.DRAM.Accesses {
		t.Fatalf("shrinking L2 did not increase DRAM traffic: %d vs %d",
			actual.DRAM.Accesses, base.FullTotals.DRAM.Accesses)
	}
}

func TestAblationTable(t *testing.T) {
	s := testStudy(t)
	tbl, rows, err := s.AblationTable("hcr")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 || tbl.NumRows() != len(rows) {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "paper-config" {
		t.Fatalf("first variant = %s", rows[0].Name)
	}
	for _, row := range rows {
		if row.Frames <= 0 {
			t.Errorf("%s: no frames selected", row.Name)
		}
		if row.CyclesErr < 0 || row.CyclesErr > 100 {
			t.Errorf("%s: implausible error %v%%", row.Name, row.CyclesErr)
		}
	}
	// The threshold trade-off must hold: T=0.95 selects at least as many
	// frames as T=0.70.
	var lo, hi int
	for _, row := range rows {
		switch row.Name {
		case "threshold-0.70":
			lo = row.Frames
		case "threshold-0.95":
			hi = row.Frames
		}
	}
	if hi < lo {
		t.Fatalf("T=0.95 chose fewer frames (%d) than T=0.70 (%d)", hi, lo)
	}
}

func TestASSIStudy(t *testing.T) {
	s := testStudy(t)
	tbl, err := s.ASSIStudy("hcr", 30)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}

func TestClusterErrorTable(t *testing.T) {
	s := testStudy(t)
	tbl, rows, err := s.ClusterErrorTable("hcr", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || tbl.NumRows() != len(rows) {
		t.Fatalf("rows = %d", len(rows))
	}
	r, _ := s.Result("hcr")
	// Contributions over ALL clusters must sum to the signed total
	// estimation error.
	_, all, err := s.ClusterErrorTable("hcr", 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, row := range all {
		sum += row.Contribution
	}
	signed := float64(r.Estimate.Cycles) - float64(r.FullTotals.Cycles)
	if diff := sum - signed; diff > 1 || diff < -1 {
		t.Fatalf("contributions sum to %v, want %v", sum, signed)
	}
	// Rows are sorted by magnitude.
	for i := 1; i < len(all); i++ {
		if abs64(all[i].Contribution) > abs64(all[i-1].Contribution)+1e-9 {
			t.Fatal("rows not sorted by |contribution|")
		}
	}
}

func TestPresetTable(t *testing.T) {
	s := testStudy(t)
	tbl, err := s.PresetTable("hcr")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 5 { // lowend, mali450, highend, tbdr, tiled
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}
