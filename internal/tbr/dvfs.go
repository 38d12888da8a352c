package tbr

import (
	"math"

	"repro/internal/tbr/mem"
)

// referenceFrequencyMHz is the GPU clock at which Table I's DRAM timing
// values (50-100 cycles, 4 B/cycle) are specified. At other GPU clocks
// the main memory's absolute (wall-clock) timing is unchanged, so its
// latency and inverse bandwidth expressed in GPU cycles scale with the
// GPU frequency — the classic DVFS effect where raising the core clock
// makes the workload more memory-bound.
const referenceFrequencyMHz = 600

// scaleDRAMToGPUClock converts the DRAM configuration (specified in GPU
// cycles at the reference frequency) to the simulator's clock domain at
// the configured frequency. At the reference frequency the configuration
// is returned unchanged, keeping default results bit-identical.
func scaleDRAMToGPUClock(d mem.DRAMConfig, freqMHz int) mem.DRAMConfig {
	if freqMHz <= 0 || freqMHz == referenceFrequencyMHz {
		return d
	}
	scale := float64(freqMHz) / referenceFrequencyMHz
	out := d
	out.RowHitLatency = scaleCycles(d.RowHitLatency, scale)
	out.RowMissLatency = scaleCycles(d.RowMissLatency, scale)
	// Bandwidth: bytes per GPU cycle shrinks as the core clock rises.
	bpc := float64(d.BytesPerCycle) / scale
	if bpc < 1 {
		// Finer than 1 B/cycle: express as a longer per-line transfer
		// by clamping BytesPerCycle to 1 and folding the residual
		// transfer time into the access latency (an approximation: the
		// residual is charged as latency rather than bus occupancy).
		residual := uint64(math.Round(float64(d.LineBytes) * (1/bpc - 1)))
		out.BytesPerCycle = 1
		out.RowHitLatency += residual
		out.RowMissLatency += residual
		return out
	}
	out.BytesPerCycle = int(math.Round(bpc))
	if out.BytesPerCycle < 1 {
		out.BytesPerCycle = 1
	}
	return out
}

func scaleCycles(c uint64, scale float64) uint64 {
	v := uint64(math.Round(float64(c) * scale))
	if v < 1 {
		v = 1
	}
	return v
}

// FrameSeconds converts a frame's cycle count to wall-clock seconds at
// the configured GPU frequency.
func (c Config) FrameSeconds(cycles uint64) float64 {
	if c.FrequencyMHz <= 0 {
		return 0
	}
	return float64(cycles) / (float64(c.FrequencyMHz) * 1e6)
}
