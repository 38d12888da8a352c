package harness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/tbr"
	"repro/internal/xmath/stats"
)

// AblationRow is one configuration variant's outcome on a benchmark.
type AblationRow struct {
	Name      string
	Frames    int
	CyclesErr float64 // percent
	DRAMErr   float64 // percent
}

// AblationTable re-runs MEGsim's selection under variants of the
// methodology configuration on one benchmark, reusing the cached ground
// truth, and reports each variant's representative count and estimation
// error — the design-choice study DESIGN.md calls out.
func (s *Study) AblationTable(alias string) (*report.Table, []AblationRow, error) {
	r, err := s.Result(alias)
	if err != nil {
		return nil, nil, err
	}
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"paper-config", func(*core.Config) {}},
		{"uniform-weights", func(c *core.Config) { c.Feature.Weights = core.UniformWeights }},
		{"no-texture-weights", func(c *core.Config) { c.Feature.UseTextureWeights = false }},
		{"no-prim", func(c *core.Config) { c.Feature.IncludePrim = false }},
		{"threshold-0.70", func(c *core.Config) { c.Search.Threshold = 0.70 }},
		{"threshold-0.95", func(c *core.Config) { c.Search.Threshold = 0.95 }},
		{"paper-stop-rule", func(c *core.Config) { c.Search.Patience = 1 }},
	}

	t := report.NewTable(fmt.Sprintf("Ablations on %s (cycles/dram error vs ground truth)", alias),
		"variant", "frames", "cycles-err(%)", "dram-err(%)")
	var rows []AblationRow
	// Variants that differ only in threshold cut one shared
	// exploration.
	explored := map[core.Config]*cluster.Exploration{}
	for _, v := range variants {
		cfg := s.Opts.MEGsim
		v.mutate(&cfg)
		fs, err := core.BuildFeatures(r.Func, cfg.Feature)
		if err != nil {
			return nil, nil, err
		}
		key := core.ExplorationKey(cfg)
		ex, ok := explored[key]
		if !ok {
			if ex, err = core.Explore(fs, cfg); err != nil {
				return nil, nil, err
			}
			explored[key] = ex
		}
		sel, err := core.Cut(fs, ex, cfg.Search.Threshold)
		if err != nil {
			return nil, nil, err
		}
		est, err := sel.EstimateFromFullRun(r.Full)
		if err != nil {
			return nil, nil, err
		}
		acc := core.EvaluateAccuracy(&est, &r.FullTotals)
		row := AblationRow{
			Name:      v.name,
			Frames:    sel.NumRepresentatives(),
			CyclesErr: acc.Percent(core.MetricCycles),
			DRAMErr:   acc.Percent(core.MetricDRAM),
		}
		rows = append(rows, row)
		t.AddRow(row.Name, row.Frames, row.CyclesErr, row.DRAMErr)
	}
	return t, rows, nil
}

// ASSIStudy quantifies the architectural-state starting-image question
// the paper sidesteps with per-frame cold starts: it simulates a window
// of frames with caches flushed per frame (the MEGsim assumption) and
// with caches kept warm across frames, and reports how much the
// per-frame statistics differ. Small deltas justify simulating cluster
// representatives in isolation.
func (s *Study) ASSIStudy(alias string, window int) (*report.Table, error) {
	r, err := s.Result(alias)
	if err != nil {
		return nil, err
	}
	if window <= 0 || window > r.Trace.NumFrames() {
		window = r.Trace.NumFrames()
	}
	warmCfg := s.Opts.GPU
	warmCfg.FlushCachesPerFrame = false
	warmSim, err := tbr.New(warmCfg, r.Trace)
	if err != nil {
		return nil, err
	}

	var coldCycles, warmCycles, coldDRAM, warmDRAM float64
	deltas := make([]float64, 0, window)
	for f := 0; f < window; f++ {
		cold := r.Full[f] // cached cold-start ground truth
		warm := warmSim.SimulateFrame(f)
		coldCycles += float64(cold.Cycles)
		warmCycles += float64(warm.Cycles)
		coldDRAM += float64(cold.DRAM.Accesses)
		warmDRAM += float64(warm.DRAM.Accesses)
		deltas = append(deltas, stats.RelativeError(float64(cold.Cycles), float64(warm.Cycles)))
	}

	t := report.NewTable(fmt.Sprintf("ASSI study on %s (%d frames): cold-start vs warm caches", alias, window),
		"metric", "cold-start", "warm", "delta(%)")
	t.AddRow("total cycles", fmt.Sprintf("%.0f", coldCycles), fmt.Sprintf("%.0f", warmCycles),
		stats.RelativeError(coldCycles, warmCycles)*100)
	t.AddRow("dram accesses", fmt.Sprintf("%.0f", coldDRAM), fmt.Sprintf("%.0f", warmDRAM),
		stats.RelativeError(coldDRAM, warmDRAM)*100)
	t.AddRow("per-frame cycles delta p95", "", "", stats.Percentile(deltas, 95)*100)
	return t, nil
}
