package harness

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/tbr"
)

// PresetTable compares the named GPU presets on one benchmark by
// re-simulating only the cached MEGsim representatives per preset — a
// complete machine-comparison study at a tiny fraction of full
// simulation cost.
func (s *Study) PresetTable(alias string) (*report.Table, error) {
	r, err := s.Result(alias)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("GPU preset comparison on "+alias+" (MEGsim-estimated)",
		"preset", "clock", "vps/fps", "est-cycles(M)", "ms/frame", "fp-util(%)", "dram(M)")
	for _, name := range tbr.PresetNames() {
		cfg, err := tbr.Preset(name)
		if err != nil {
			return nil, err
		}
		est, _, err := s.VaryGPUConfig(alias, cfg, false)
		if err != nil {
			return nil, err
		}
		msPerFrame := cfg.FrameSeconds(est.Cycles) / float64(r.Trace.NumFrames()) * 1e3
		t.AddRow(name,
			formatMHz(cfg.FrequencyMHz),
			formatPair(cfg.NumVertexProcessors, cfg.NumFragmentProcessors),
			float64(est.Cycles)/1e6,
			msPerFrame,
			est.FPUtilization(cfg.NumFragmentProcessors)*100,
			float64(est.DRAM.Accesses)/1e6)
	}
	return t, nil
}

func formatMHz(mhz int) string {
	return fmt.Sprintf("%dMHz", mhz)
}

func formatPair(a, b int) string {
	return fmt.Sprintf("%d/%d", a, b)
}
