package harness

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/tbr"
)

// ServiceOptions is the `service` preset: the settings the campaign
// service (internal/serve) and its tests run campaigns under — the
// small test-scale workload with the tile-parallel raster stage on.
// Serve's cache-identity tests compare daemon responses against a
// direct megsim run under exactly these options, so keep the preset and
// the serve test fixtures in lockstep.
func ServiceOptions() Options {
	o := TestOptions()
	o.GPU.TileWorkers = 2
	return o
}

// ServiceResilience is the supervisor half of the `service` preset:
// resilience on (one retry per frame) with backoff disabled, so tests
// exercise the supervised path without sleeping on injected faults.
func ServiceResilience() resilience.Config {
	return resilience.Config{MaxAttempts: 2, BackoffBase: -1}
}

// ClusterWorkerCount is the fleet size of the `cluster` preset: the
// smallest fleet where killing one worker still leaves a quorum to
// exercise failover (and the size the fabric cluster tests run).
const ClusterWorkerCount = 3

// ClusterOptions is the `cluster` preset: the settings distributed
// (coordinator + worker) campaigns and their tests run under. It is
// exactly the `service` preset — a distributed campaign must be
// byte-identical to a single-process one, so the two presets must never
// diverge.
func ClusterOptions() Options {
	return ServiceOptions()
}

// ClusterResilience is the supervisor half of the `cluster` preset:
// the `service` supervisor settings plus a small worker-loss requeue
// budget, so a dispatch stranded by a dying worker re-enters the pool
// a bounded number of times without charging the frame's attempts.
func ClusterResilience() resilience.Config {
	cfg := ServiceResilience()
	cfg.MaxRequeues = 8
	return cfg
}

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
