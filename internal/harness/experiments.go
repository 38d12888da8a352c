package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/simmatrix"
	"repro/internal/tbr"
	"repro/internal/workload"
	"repro/internal/xmath/stats"
)

// Study runs and caches per-benchmark results so the different tables
// and figures share the expensive full-sequence simulations.
type Study struct {
	Opts    Options
	results map[string]*BenchmarkResult
	// Aliases restricts the benchmark set (nil = all of Table II).
	Aliases []string
}

// NewStudy creates an empty study.
func NewStudy(opts Options) *Study {
	return &Study{Opts: opts, results: make(map[string]*BenchmarkResult)}
}

func (s *Study) aliases() []string {
	if len(s.Aliases) > 0 {
		return s.Aliases
	}
	return workload.Aliases()
}

// Result returns the (cached) complete study result for a benchmark.
func (s *Study) Result(alias string) (*BenchmarkResult, error) {
	if r, ok := s.results[alias]; ok {
		return r, nil
	}
	p, err := workload.Get(alias)
	if err != nil {
		return nil, err
	}
	r, err := Run(p, s.Opts)
	if err != nil {
		return nil, err
	}
	s.results[alias] = r
	return r, nil
}

// TableII reproduces Table II: the benchmark set characteristics, with
// cycles and IPC measured on our simulator.
func (s *Study) TableII() (*report.Table, error) {
	t := report.NewTable("Table II: Evaluated benchmark set",
		"benchmark", "alias", "type", "frames", "vertex-shaders", "fragment-shaders", "cycles(M)", "ipc")
	for _, a := range s.aliases() {
		r, err := s.Result(a)
		if err != nil {
			return nil, err
		}
		total := r.FullTotals
		t.AddRow(r.Profile.Title, a, r.Profile.Type.String(), r.Trace.NumFrames(),
			len(r.Trace.VertexShaders), len(r.Trace.FragmentShaders),
			float64(total.Cycles)/1e6, total.IPC())
	}
	return t, nil
}

// TableIII reproduces Table III: the reduction factor in the number of
// frames per benchmark.
func (s *Study) TableIII() (*report.Table, error) {
	t := report.NewTable("Table III: Reduction factor in the number of frames",
		"benchmark", "actual-frames", "megsim-frames", "reduction-factor")
	var frames, reps, factor float64
	for _, a := range s.aliases() {
		r, err := s.Result(a)
		if err != nil {
			return nil, err
		}
		t.AddRow(a, r.Trace.NumFrames(), r.Selection.NumRepresentatives(),
			fmt.Sprintf("%.0fx", r.SpeedupFrames()))
		frames += float64(r.Trace.NumFrames())
		reps += float64(r.Selection.NumRepresentatives())
		factor += r.SpeedupFrames()
	}
	n := float64(len(s.aliases()))
	t.AddRow("Average", fmt.Sprintf("%.0f", frames/n), fmt.Sprintf("%.0f", reps/n),
		fmt.Sprintf("%.0fx", factor/n))
	return t, nil
}

// Fig3 reproduces the correlation study of Fig. 3: correlation of each
// characterization group with the total cycle count, per benchmark.
func (s *Study) Fig3() (*report.Table, error) {
	t := report.NewTable("Fig. 3: Correlation of input parameters with total cycles",
		"benchmark", "VSCV", "FSCV", "PRIM")
	for _, a := range s.aliases() {
		r, err := s.Result(a)
		if err != nil {
			return nil, err
		}
		cycles := make([]float64, len(r.Full))
		for i := range r.Full {
			cycles[i] = float64(r.Full[i].Cycles)
		}
		corr, err := core.CorrelationStudy(r.Func, cycles)
		if err != nil {
			return nil, err
		}
		t.AddRow(a, corr.VSCV, corr.FSCV, corr.Prim)
	}
	return t, nil
}

// Fig4 reproduces the power-fraction study of Fig. 4: the share of
// dissipated energy in the Geometry, Tiling and Raster phases.
func (s *Study) Fig4() (*report.Table, error) {
	t := report.NewTable("Fig. 4: Fraction of dissipated power per pipeline phase",
		"benchmark", "geometry", "tiling", "raster")
	model := power.DefaultEnergyModel()
	var avg power.Breakdown
	for _, a := range s.aliases() {
		r, err := s.Result(a)
		if err != nil {
			return nil, err
		}
		b := model.SequenceEnergy(r.Full)
		g, ti, ra := b.Fractions()
		t.AddRow(a, g, ti, ra)
		avg.Add(power.Breakdown{Geometry: g, Tiling: ti, Raster: ra})
	}
	n := float64(len(s.aliases()))
	t.AddRow("Average", avg.Geometry/n, avg.Tiling/n, avg.Raster/n)
	return t, nil
}

// Fig5 writes the similarity matrix of the first `frames` frames of a
// benchmark as a PGM image (Fig. 5 uses bbr with 900 frames).
func (s *Study) Fig5(alias string, frames int, w io.Writer) error {
	r, err := s.Result(alias)
	if err != nil {
		return err
	}
	vecs := r.Features.Vectors
	if frames > 0 && frames < len(vecs) {
		vecs = vecs[:frames]
	}
	return simmatrix.New(vecs).WritePGM(w)
}

// Fig6 writes the similarity matrix with the chosen clusters drawn along
// the diagonal as a PPM image.
func (s *Study) Fig6(alias string, frames int, w io.Writer) error {
	r, err := s.Result(alias)
	if err != nil {
		return err
	}
	vecs := r.Features.Vectors
	assign := r.Selection.Clusters.Assign
	if frames > 0 && frames < len(vecs) {
		vecs = vecs[:frames]
		assign = assign[:frames]
	}
	band := len(vecs)/100 + 1
	return simmatrix.New(vecs).WritePPM(w, assign, band)
}

// Fig7 reproduces the accuracy study of Fig. 7: relative error of the
// four key metrics per benchmark.
func (s *Study) Fig7() (*report.Table, error) {
	t := report.NewTable("Fig. 7: Relative error (%) of MEGsim-estimated metrics",
		"benchmark", "cycles", "dram", "l2", "tile-cache")
	var sums core.Accuracy
	for _, a := range s.aliases() {
		r, err := s.Result(a)
		if err != nil {
			return nil, err
		}
		t.AddRow(a,
			r.Accuracy.Percent(core.MetricCycles),
			r.Accuracy.Percent(core.MetricDRAM),
			r.Accuracy.Percent(core.MetricL2),
			r.Accuracy.Percent(core.MetricTileCache))
		for _, m := range core.Metrics() {
			sums[m] += r.Accuracy[m]
		}
	}
	n := float64(len(s.aliases()))
	t.AddRow("Average", sums[core.MetricCycles]/n*100, sums[core.MetricDRAM]/n*100,
		sums[core.MetricL2]/n*100, sums[core.MetricTileCache]/n*100)
	return t, nil
}

// TableIVConfig controls the random sub-sampling comparison.
type TableIVConfig struct {
	// RandomTrials is the number of random sub-sampling repetitions
	// per k (the paper uses 1000).
	RandomTrials int
	// MEGsimTrials is the number of k-means re-initializations used to
	// bound MEGsim's own error (the paper uses 100).
	MEGsimTrials int
	// Confidence bounds the reported maximum error (the paper uses
	// 0.95).
	Confidence float64
	// Seed drives the repetitions.
	Seed uint64
}

// DefaultTableIVConfig returns the paper's evaluation parameters with a
// reduced MEGsim repetition count (re-clustering is the expensive part;
// 30 re-initializations bound the same tail within the resolution the
// table needs).
func DefaultTableIVConfig() TableIVConfig {
	return TableIVConfig{RandomTrials: 1000, MEGsimTrials: 30, Confidence: 0.95, Seed: 99}
}

// TableIVRow is one row of Table IV.
type TableIVRow struct {
	Alias           string
	MaxRelErr       float64 // MEGsim's 95%-confidence max cycles error (%)
	MEGsimFrames    int
	RandomFrames    int
	ReductionFactor float64
}

// TableIV reproduces the random sub-sampling comparison of Table IV:
// MEGsim's 95%-confidence maximum cycles error over repeated k-means
// initializations, and the number of frames random sub-sampling needs to
// match it.
func (s *Study) TableIV(cfg TableIVConfig) (*report.Table, []TableIVRow, error) {
	t := report.NewTable("Table IV: Frames needed for equal accuracy (95% confidence)",
		"benchmark", "max-rel-error(%)", "megsim-frames", "random-frames", "reduction")
	var rows []TableIVRow
	var sumErr, sumMEG, sumRnd, sumRed float64
	for _, a := range s.aliases() {
		r, err := s.Result(a)
		if err != nil {
			return nil, nil, err
		}
		row, err := s.tableIVRow(a, r, cfg)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		t.AddRow(a, row.MaxRelErr, row.MEGsimFrames, row.RandomFrames,
			fmt.Sprintf("%.1fx", row.ReductionFactor))
		sumErr += row.MaxRelErr
		sumMEG += float64(row.MEGsimFrames)
		sumRnd += float64(row.RandomFrames)
		sumRed += row.ReductionFactor
	}
	n := float64(len(rows))
	t.AddRow("Average", sumErr/n, fmt.Sprintf("%.1f", sumMEG/n),
		fmt.Sprintf("%.1f", sumRnd/n), fmt.Sprintf("%.1fx", sumRed/n))
	return t, rows, nil
}

func (s *Study) tableIVRow(alias string, r *BenchmarkResult, cfg TableIVConfig) (TableIVRow, error) {
	cycles := make([]float64, len(r.Full))
	for i := range r.Full {
		cycles[i] = float64(r.Full[i].Cycles)
	}
	actual := stats.Sum(cycles)

	// MEGsim's error distribution over k-means re-initializations at
	// the chosen cluster count (the paper varies initialization 100x).
	k := r.Selection.Clusters.K
	rng := stats.NewRNG(cfg.Seed)
	errs := make([]float64, 0, cfg.MEGsimTrials)
	for trial := 0; trial < cfg.MEGsimTrials; trial++ {
		res := cluster.KMeans(r.Features.Vectors, k, rng.Split(), 30)
		reps := cluster.Representatives(r.Features.Vectors, res)
		est := 0.0
		for c, rep := range reps {
			est += cycles[rep] * float64(res.Sizes[c])
		}
		errs = append(errs, stats.RelativeError(est, actual))
	}
	maxErr := stats.MaxAtConfidence(errs, cfg.Confidence)

	// Random sub-sampling must reach the same max error bound.
	need, err := core.FramesNeeded(cycles, maxErr, cfg.RandomTrials, cfg.Confidence, cfg.Seed^uint64(len(alias)))
	if err != nil {
		return TableIVRow{}, err
	}
	row := TableIVRow{
		Alias:        alias,
		MaxRelErr:    maxErr * 100,
		MEGsimFrames: r.Selection.NumRepresentatives(),
		RandomFrames: need,
	}
	if row.MEGsimFrames > 0 {
		row.ReductionFactor = float64(need) / float64(row.MEGsimFrames)
	}
	return row, nil
}

// SpeedupTable reports measured wall-clock simulation speedups (the
// paper's headline 126x is a frame-count reduction; this table shows
// the corresponding measured time reduction on our simulator, plus the
// cost of the cheap MEGsim phases).
func (s *Study) SpeedupTable() (*report.Table, error) {
	t := report.NewTable("Measured simulation-time speedup",
		"benchmark", "full-sim", "sampled-sim", "speedup", "funcsim", "clustering")
	for _, a := range s.aliases() {
		r, err := s.Result(a)
		if err != nil {
			return nil, err
		}
		t.AddRow(a, r.FullSimTime.Round(msRound).String(), r.SampledSimTime.Round(msRound).String(),
			fmt.Sprintf("%.0fx", r.SpeedupTime()), r.FuncSimTime.Round(msRound).String(),
			r.SelectTime.Round(msRound).String())
	}
	return t, nil
}

const msRound = 1e6 // time.Millisecond without importing time here

// ClusterSummary reports the per-benchmark clustering shape (cluster
// sizes, BIC search length) for diagnostics.
func (s *Study) ClusterSummary(alias string) (string, error) {
	r, err := s.Result(alias)
	if err != nil {
		return "", err
	}
	sizes := append([]int(nil), r.Selection.Clusters.Sizes...)
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return fmt.Sprintf("%s: k=%d explored=%d sizes=%v", alias,
		r.Selection.Clusters.K, len(r.Selection.BICScores), sizes), nil
}

// GeoMeanReduction returns the geometric mean reduction factor across
// benchmarks (a robust summary alongside the paper's arithmetic mean).
func (s *Study) GeoMeanReduction() (float64, error) {
	prod := 1.0
	n := 0
	for _, a := range s.aliases() {
		r, err := s.Result(a)
		if err != nil {
			return 0, err
		}
		prod *= r.SpeedupFrames()
		n++
	}
	return math.Pow(prod, 1/float64(n)), nil
}

// VaryGPUConfig re-estimates one benchmark under a modified GPU
// configuration using the SAME frame selection (MEGsim's
// characterization is architecture-independent, so the design-space
// exploration only re-simulates representatives). Returns estimated and
// (optionally) ground-truth totals.
func (s *Study) VaryGPUConfig(alias string, gpu tbr.Config, groundTruth bool) (estimate, actual tbr.FrameStats, err error) {
	r, err := s.Result(alias)
	if err != nil {
		return estimate, actual, err
	}
	opts := s.Opts
	opts.GPU = gpu
	repStats, err := simulateReps(opts, r.Trace, r.Selection.Representatives)
	if err != nil {
		return estimate, actual, err
	}
	estimate, err = r.Selection.Estimate(repStats)
	if err != nil {
		return estimate, actual, err
	}
	if groundTruth {
		full, err := tbr.SimulateFrames(opts.ctx(), gpu, r.Trace, nil, opts.Workers)
		if err != nil {
			return estimate, actual, err
		}
		actual = core.SumStats(full)
	}
	return estimate, actual, nil
}
