package tbr

import (
	"fmt"

	"repro/internal/tbr/mem"
)

// FaultConfig is the deterministic fault-injection layer of the
// validation subsystem (internal/check). Each fault class perturbs one
// aspect of the simulated microarchitecture; all rolls derive from
// (Seed, frame, tile, class), so an injected fault pattern is a pure
// function of the workload position — identical for every
// frame-worker count, and identical whether a frame is simulated
// standalone (as a MEGsim representative) or mid-sequence. The zero
// value injects nothing and costs one Enabled() branch per tile.
//
// Fault classes split into two families the validation tests exercise
// separately: timing/behaviour perturbations (DRAM latency, forced
// cache flushes, dropped/duplicated tiles, stalled shader cores) that
// must surface as shifted statistics in the differential oracle's
// accuracy report, and state corruption (CorruptStats) that must trip
// the invariant checks threaded through the simulator.
type FaultConfig struct {
	// Seed drives every fault roll. Two runs with the same seed and
	// rates inject byte-identical fault patterns.
	Seed uint64

	// DRAMLatencyScale multiplies the DRAM row-hit and row-miss
	// latencies (after the GPU-clock scaling). 0 or 1 disables the
	// fault; 2 doubles memory latency everywhere.
	DRAMLatencyScale float64

	// DropTileRate is the per-tile probability that the Raster Pipeline
	// silently skips the tile's primitive list (the tile still resolves
	// and writes back). Models lost polygon-list work.
	DropTileRate float64

	// DuplicateTileRate is the per-tile probability that the tile's
	// primitive list is processed twice. Models replayed work.
	DuplicateTileRate float64

	// CacheFlushRate is the per-tile probability that the tile-level
	// caches (tile cache + texture caches) are forcibly flushed after
	// the tile, destroying locality the following tiles relied on.
	CacheFlushRate float64

	// StallRate and StallCycles stall the shader cores for StallCycles
	// at the start of a rolled tile (all fragment processors idle).
	StallRate   float64
	StallCycles uint64

	// CorruptStats, when set, corrupts every frame's cache statistics
	// after simulation (hits + misses no longer equals accesses). It
	// exists so tests can prove the invariant checks actually fire; it
	// never changes timing.
	CorruptStats bool
}

// Fault-roll classes. Each class draws an independent deterministic
// stream so enabling one fault never shifts another's pattern.
const (
	faultClassDrop uint64 = iota
	faultClassDuplicate
	faultClassFlush
	faultClassStall
)

// Enabled reports whether any fault class is active.
func (f *FaultConfig) Enabled() bool {
	return f.DropTileRate > 0 || f.DuplicateTileRate > 0 || f.CacheFlushRate > 0 ||
		(f.StallRate > 0 && f.StallCycles > 0) || f.dramPerturbed() || f.CorruptStats
}

func (f *FaultConfig) dramPerturbed() bool {
	return f.DRAMLatencyScale > 0 && f.DRAMLatencyScale != 1
}

// validate reports configuration errors.
func (f *FaultConfig) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DropTileRate", f.DropTileRate},
		{"DuplicateTileRate", f.DuplicateTileRate},
		{"CacheFlushRate", f.CacheFlushRate},
		{"StallRate", f.StallRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("tbr: fault %s %v out of [0,1]", r.name, r.v)
		}
	}
	if f.DRAMLatencyScale < 0 {
		return fmt.Errorf("tbr: fault DRAMLatencyScale %v must be >= 0", f.DRAMLatencyScale)
	}
	return nil
}

// roll returns a deterministic pseudo-random value in [0, 1) for the
// (frame, tile, class) triple — a splitmix64 finalizer over the mixed
// coordinates, so the pattern is independent of simulation order.
func (f *FaultConfig) roll(frame, tile int, class uint64) float64 {
	x := f.Seed ^
		uint64(frame)*0x9E3779B97F4A7C15 ^
		uint64(tile)*0xBF58476D1CE4E5B9 ^
		(class+1)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// perturbDRAM applies the DRAM-latency fault to an already
// clock-scaled DRAM configuration.
func (f *FaultConfig) perturbDRAM(cfg mem.DRAMConfig) mem.DRAMConfig {
	if !f.dramPerturbed() {
		return cfg
	}
	cfg.RowHitLatency = uint64(float64(cfg.RowHitLatency) * f.DRAMLatencyScale)
	cfg.RowMissLatency = uint64(float64(cfg.RowMissLatency) * f.DRAMLatencyScale)
	return cfg
}

// corruptFrameStats applies the CorruptStats fault: it bumps the L2
// access counter without touching hits or misses, so the
// hits+misses==accesses invariant no longer holds for the frame.
func (f *FaultConfig) corruptFrameStats(st *FrameStats) {
	if !f.CorruptStats {
		return
	}
	st.L2.Accesses += 1 + st.L2.Accesses/16
}
