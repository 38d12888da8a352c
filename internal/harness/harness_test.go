package harness

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
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
	r, err := Run(context.Background(), workload.Profiles["hcr"], TestOptions())
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
	full, err := Run(context.Background(), workload.Profiles["jjo"], opts)
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

var updateGolden = flag.Bool("update", false, "rewrite the study-table golden")

// TestStudyTables renders every deterministic study table of testStudy
// and compares the bytes against testdata/study_tables.txt: Tables
// II-IV (Table IV at TestStudyTableIV's reduced trial counts), Figs. 3,
// 4 and 7, and the hcr ablation and GPU-preset tables. SpeedupTable
// prints wall-clock times, so it is checked by row count only.
// Regenerate deliberately with `go test ./internal/harness -run
// TestStudyTables -update` and review the diff.
func TestStudyTables(t *testing.T) {
	s := testStudy(t)
	var buf bytes.Buffer
	render := func(tbl *report.Table, err error, rows int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if rows >= 0 && tbl.NumRows() != rows {
			t.Fatalf("%s: rows = %d, want %d", tbl.Title, tbl.NumRows(), rows)
		}
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}

	t2, err := s.TableII()
	render(t2, err, 2)
	t3, err := s.TableIII()
	render(t3, err, 3) // 2 benchmarks + average
	f3, err := s.Fig3()
	render(f3, err, 2)
	if !strings.Contains(buf.String(), "VSCV") {
		t.Fatal("Fig 3 table missing headers")
	}
	f4, err := s.Fig4()
	render(f4, err, 3)
	f7, err := s.Fig7()
	render(f7, err, 3)
	cfg := DefaultTableIVConfig()
	cfg.RandomTrials = 100
	cfg.MEGsimTrials = 5
	t4, _, err := s.TableIV(cfg)
	render(t4, err, 3)
	ab, _, err := s.AblationTable("hcr")
	render(ab, err, -1)
	pt, err := s.PresetTable("hcr")
	render(pt, err, 4) // lowend, mali450, highend, tbdr

	sp, err := s.SpeedupTable()
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumRows() != 2 {
		t.Fatalf("speedup rows = %d", sp.NumRows())
	}

	path := filepath.Join("testdata", "study_tables.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("study tables differ from %s:\n%s", path, buf.Bytes())
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

func TestVaryGPUConfig(t *testing.T) {
	s := testStudy(t)
	gpu := tbr.DefaultConfig()
	gpu.L2.SizeBytes = 64 << 10 // smaller L2
	est, actual, err := s.varyGPUConfig("hcr", gpu, true)
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

func TestPresetTable(t *testing.T) {
	s := testStudy(t)
	tbl, err := s.PresetTable("hcr")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 { // lowend, mali450, highend, tbdr
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}
