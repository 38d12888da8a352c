package check

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/power"
	"repro/internal/stream"
	"repro/internal/tbr"
	"repro/internal/workload"
	"repro/internal/xmath/stats"
)

// Tolerance is the per-metric acceptance band for the differential
// oracle: the maximum sampled-vs-full relative error (a fraction, not
// percent) accepted for each reported metric.
type Tolerance struct {
	Cycles    float64 `json:"cycles"`
	DRAM      float64 `json:"dram"`
	L2        float64 `json:"l2"`
	TileCache float64 `json:"tile_cache"`
	// Energy bounds each of the three per-phase energy errors and the
	// total-energy error.
	Energy float64 `json:"energy"`
}

// DefaultTolerance returns the acceptance bands used by `make
// validate`. The paper reports sampled-simulation error under ~1.6% on
// the Table II workloads at full sequence length; the oracle's
// randomized workloads run at reduced frame counts where each cluster
// holds fewer frames, so the bands are set wider — they gate against
// methodology regressions, not against the paper's headline number.
func DefaultTolerance() Tolerance {
	return Tolerance{Cycles: 0.08, DRAM: 0.10, L2: 0.10, TileCache: 0.10, Energy: 0.10}
}

// Scaled returns the tolerance with every band multiplied by f — how
// fault-injection runs express "error may degrade, but gracefully".
func (t Tolerance) Scaled(f float64) Tolerance {
	return Tolerance{
		Cycles:    t.Cycles * f,
		DRAM:      t.DRAM * f,
		L2:        t.L2 * f,
		TileCache: t.TileCache * f,
		Energy:    t.Energy * f,
	}
}

// OracleConfig configures a differential-oracle run.
type OracleConfig struct {
	// Seeds are the workload-generator seeds; one SeedResult per seed.
	Seeds []uint64
	// GPU is the timing-simulator configuration. Zero value means
	// tbr.DefaultConfig(). FlushCachesPerFrame must stay enabled — the
	// oracle's rep-isolation check depends on it.
	GPU tbr.Config
	// MEGsim is the methodology configuration. Zero value means
	// core.DefaultConfig().
	MEGsim core.Config
	// Scale sizes the generated traces. Zero value means
	// DefaultOracleScale.
	Scale workload.Scale
	// Workers bounds goroutines for the simulation passes (0 =
	// GOMAXPROCS). Never affects results.
	Workers int
	// Faults, when enabled, perturbs the simulated microarchitecture
	// identically in the full and sampled passes (the injection is
	// keyed by frame and tile, not execution order). Faults.Seed is
	// overridden per workload seed so each seed sees its own faults.
	Faults tbr.FaultConfig
	// Tolerance is the acceptance band. Zero value means
	// DefaultTolerance.
	Tolerance Tolerance
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// DefaultOracleScale keeps oracle runs CI-sized: reduced resolution and
// roughly 75-200 frames per randomized workload.
var DefaultOracleScale = workload.Scale{Width: 160, Height: 96, FrameDivisor: 8, DetailDivisor: 2}

// MetricError is one row of the accuracy report: a metric's full-run
// value, its MEGsim estimate, their relative error, and the verdict
// against the tolerance band.
type MetricError struct {
	Name      string  `json:"name"`
	Estimate  float64 `json:"estimate"`
	Actual    float64 `json:"actual"`
	RelErr    float64 `json:"rel_err"`
	Tolerance float64 `json:"tolerance"`
	Pass      bool    `json:"pass"`
}

// SeedResult is the oracle's verdict for one randomized workload.
type SeedResult struct {
	Seed            uint64 `json:"seed"`
	Alias           string `json:"alias"`
	Frames          int    `json:"frames"`
	Representatives int    `json:"representatives"`
	// Reduction is the frames-simulated reduction factor (Table III).
	Reduction float64 `json:"reduction"`
	// Metrics holds the per-metric error rows: the four Fig. 7 metrics
	// plus per-stage and total energy.
	Metrics []MetricError `json:"metrics"`
	// RepIsolation reports whether every representative simulated
	// standalone was bit-identical to the same frame inside the full
	// run — the frame-isolation property the methodology rests on.
	RepIsolation bool `json:"rep_isolation"`
	// StreamStrata is the streaming probe's stratum count: every seed
	// also runs the bounded-memory online stratifier (internal/stream)
	// over the same characterization; its estimate rows appear in
	// Metrics with a "stream-" prefix, judged against the same bands as
	// batch.
	StreamStrata int `json:"stream_strata,omitempty"`
	// StreamReduction is the streaming frames/strata reduction factor.
	StreamReduction float64 `json:"stream_reduction,omitempty"`
	// StreamAgreement is the Rand index between the streaming and batch
	// frame partitions (1 = identical pair structure). Reported, not
	// gated: the methodologies legitimately choose different granularity;
	// accuracy is what the bands gate.
	StreamAgreement float64 `json:"stream_agreement,omitempty"`
	// Violations are the invariant violations recorded during the full
	// run (empty unless faults corrupt statistics or the simulator is
	// broken).
	Violations []Violation `json:"violations,omitempty"`
	// Pass is the seed's aggregate verdict: all metric rows in band,
	// isolation held, no invariant violations.
	Pass bool `json:"pass"`
}

// Report is the oracle's JSON accuracy report.
type Report struct {
	Tolerance Tolerance `json:"tolerance"`
	// FaultsEnabled records whether the run perturbed the
	// microarchitecture (fault runs measure graceful degradation, not
	// baseline accuracy).
	FaultsEnabled bool         `json:"faults_enabled"`
	Seeds         []SeedResult `json:"seeds"`
	// Pass is the statistical acceptance gate: every seed passed.
	Pass bool `json:"pass"`
}

// WriteJSON writes the indented report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func (c *OracleConfig) withDefaults() OracleConfig {
	out := *c
	if reflect.DeepEqual(out.GPU, tbr.Config{}) {
		out.GPU = tbr.DefaultConfig()
	}
	if reflect.DeepEqual(out.MEGsim, core.Config{}) {
		out.MEGsim = core.DefaultConfig()
	}
	if out.Scale == (workload.Scale{}) {
		out.Scale = DefaultOracleScale
	}
	if out.Tolerance == (Tolerance{}) {
		out.Tolerance = DefaultTolerance()
	}
	if len(out.Seeds) == 0 {
		out.Seeds = []uint64{1, 2, 3}
	}
	return out
}

// RunOracle executes the differential oracle: for every seed it runs
// the study driver (harness.Run) on a randomized workload, with
// invariant checking armed in both the full and the sampled pass, and
// reports per-metric relative error against the tolerance bands. The
// returned report's Pass field is the statistical acceptance gate
// `make validate` enforces.
//
// An error return means a run could not complete (generation or
// simulation failure); out-of-band accuracy is not an error, it is a
// failed report.
func RunOracle(cfg OracleConfig) (*Report, error) {
	c := cfg.withDefaults()
	if !c.GPU.FlushCachesPerFrame {
		return nil, fmt.Errorf("check: oracle requires GPU.FlushCachesPerFrame (frame isolation)")
	}
	rep := &Report{Tolerance: c.Tolerance, FaultsEnabled: c.Faults.Enabled(), Pass: true}
	for _, seed := range c.Seeds {
		sr, err := c.runSeed(seed)
		if err != nil {
			return nil, fmt.Errorf("check: seed %d: %w", seed, err)
		}
		rep.Seeds = append(rep.Seeds, *sr)
		if !sr.Pass {
			rep.Pass = false
		}
	}
	return rep, nil
}

func (c *OracleConfig) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// runSeed runs one seed's study through harness.Run, with faults and
// the invariant hook armed in the GPU config, and adds the oracle's own
// checks: rep isolation, the Fig. 7 and energy rows, the streaming
// probe, and the verdict.
func (c *OracleConfig) runSeed(seed uint64) (*SeedResult, error) {
	gpu := c.GPU
	gpu.Faults = c.Faults
	gpu.Faults.Seed = seed
	inv := NewInvariants(gpu)
	gpu.Check = inv

	p := workload.RandomProfile(seed)
	res, err := harness.Run(context.Background(), p, harness.Options{GPU: gpu, MEGsim: c.MEGsim, Scale: c.Scale, Workers: c.Workers})
	if err != nil {
		return nil, err
	}
	tr, sel := res.Trace, res.Selection
	c.logf("[%s] %d frames, %d VS / %d FS (%s)", p.Alias, tr.NumFrames(), p.NumVS, p.NumFS, p.Type)

	// The representatives were simulated standalone, exactly as a
	// MEGsim user runs them. Frame isolation must make each
	// bit-identical to the same frame inside the full run.
	isolation := true
	for _, f := range sel.Representatives {
		if res.RepStats[f] != res.Full[f] {
			isolation = false
		}
	}

	sr := &SeedResult{
		Seed:            seed,
		Alias:           p.Alias,
		Frames:          tr.NumFrames(),
		Representatives: sel.NumRepresentatives(),
		Reduction:       sel.ReductionFactor(),
		RepIsolation:    isolation,
		Violations:      inv.Violations(),
	}

	sr.Metrics = append(sr.Metrics, CompareRows(&res.Estimate, &res.FullTotals, c.Tolerance)...)

	// Per-stage energy: full-run sum vs the cluster-scaled estimate.
	model := power.DefaultEnergyModel()
	fullE := model.SequenceEnergy(res.Full)
	estE := estimateEnergy(model, sel, res.RepStats)
	for _, row := range []struct {
		name     string
		est, act float64
	}{
		{"energy-geometry", estE.Geometry, fullE.Geometry},
		{"energy-tiling", estE.Tiling, fullE.Tiling},
		{"energy-raster", estE.Raster, fullE.Raster},
		{"energy-total", estE.Total(), fullE.Total()},
	} {
		sr.Metrics = append(sr.Metrics, metricRow(row.name, row.est, row.act, stats.RelativeError(row.est, row.act), c.Tolerance.Energy))
	}

	if err := c.probeStreaming(seed, res, sr); err != nil {
		return nil, err
	}

	sr.Pass = sr.RepIsolation && len(sr.Violations) == 0
	for _, m := range sr.Metrics {
		if !m.Pass {
			sr.Pass = false
		}
	}
	c.logf("[%s] reps %d/%d, max err %.2f%%, pass=%v",
		p.Alias, sr.Representatives, sr.Frames, maxErrPct(sr.Metrics), sr.Pass)
	return sr, nil
}

// probeStreaming runs the bounded-memory online stratifier over the
// same characterization the batch pipeline clustered, estimates
// full-sequence statistics from its strata (representative stats taken
// from the full run — valid by the frame-isolation property the
// rep-isolation probe just verified), and appends "stream-*" accuracy
// rows judged against the same tolerance bands. It also reports the
// Rand-index agreement between the streaming and batch partitions.
func (c *OracleConfig) probeStreaming(seed uint64, res *harness.BenchmarkResult, sr *SeedResult) error {
	scfg := stream.DefaultConfig()
	scfg.Seed = seed
	scfg.Feature = c.MEGsim.Feature
	scfg.TrackAssignments = true
	ing := stream.NewIngestor(res.Trace.Name, res.Func.VSStatic, res.Func.FSStatic, scfg)
	if err := ing.AddChunk(res.Func.Profiles); err != nil {
		return err
	}
	ssel, err := ing.Finalize()
	if err != nil {
		return err
	}
	repStats := make(map[int]tbr.FrameStats, len(ssel.Strata))
	for _, st := range ssel.Strata {
		repStats[st.Representative] = res.Full[st.Representative]
	}
	est, err := ssel.Estimate(repStats)
	if err != nil {
		return err
	}
	sr.StreamStrata = ssel.NumStrata()
	sr.StreamReduction = ssel.ReductionFactor()
	for _, row := range CompareRows(&est, &res.FullTotals, c.Tolerance) {
		row.Name = "stream-" + row.Name
		sr.Metrics = append(sr.Metrics, row)
	}
	assign, err := ing.Assignments()
	if err != nil {
		return err
	}
	sr.StreamAgreement = randIndex(res.Selection.Clusters.Assign, assign)
	c.logf("[%s] stream: %d strata, agreement %.3f", sr.Alias, sr.StreamStrata, sr.StreamAgreement)
	return nil
}

// randIndex is the Rand index of two partitions of the same frame
// sequence: the fraction of frame pairs on whose co-membership the two
// partitions agree.
func randIndex(a, b []int) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 1
	}
	agree, pairs := 0, 0
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			pairs++
			if (a[i] == a[j]) == (b[i] == b[j]) {
				agree++
			}
		}
	}
	return float64(agree) / float64(pairs)
}

func metricRow(name string, est, act, rel, tol float64) MetricError {
	return MetricError{Name: name, Estimate: est, Actual: act, RelErr: rel, Tolerance: tol, Pass: rel <= tol}
}

// CompareRows builds the accuracy-report rows for the four Fig. 7
// metrics from a sampled estimate and full-run ground truth, judged
// against the tolerance bands. cmd/megsim's -validate mode uses this
// for single-workload reports; the oracle adds energy rows on top.
func CompareRows(estimate, actual *tbr.FrameStats, tol Tolerance) []MetricError {
	acc := core.EvaluateAccuracy(estimate, actual)
	tolFor := map[core.Metric]float64{
		core.MetricCycles:    tol.Cycles,
		core.MetricDRAM:      tol.DRAM,
		core.MetricL2:        tol.L2,
		core.MetricTileCache: tol.TileCache,
	}
	rows := make([]MetricError, 0, len(core.Metrics()))
	for _, m := range core.Metrics() {
		rows = append(rows, metricRow(m.String(), m.Of(estimate), m.Of(actual), acc[m], tolFor[m]))
	}
	return rows
}

// estimateEnergy extrapolates per-stage energy exactly as Estimate
// extrapolates counters: each representative's frame energy scales by
// its cluster size. It cannot extrapolate the stats first and price
// the result (core.Extrapolate): FrameEnergy splits DRAM energy by each
// phase's L2 share, so energy is not linear in FrameStats, and pricing
// an extrapolated frame would move the reported energy.
func estimateEnergy(m power.EnergyModel, sel *core.Selection, repStats map[int]tbr.FrameStats) power.Breakdown {
	var b power.Breakdown
	for cl, rep := range sel.Representatives {
		st := repStats[rep]
		e := m.FrameEnergy(&st)
		n := float64(sel.Clusters.Sizes[cl])
		b.Geometry += e.Geometry * n
		b.Tiling += e.Tiling * n
		b.Raster += e.Raster * n
	}
	return b
}

func maxErrPct(rows []MetricError) float64 {
	max := 0.0
	for _, m := range rows {
		if m.RelErr > max {
			max = m.RelErr
		}
	}
	return max * 100
}
