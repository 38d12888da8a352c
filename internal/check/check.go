// Package check is the methodology-validation subsystem: it turns the
// repo's correctness story from "golden files match" into "the
// methodology's error bounds hold, and the simulator's invariants
// survive injected faults".
//
// It has three parts:
//
//   - A differential oracle (RunOracle) that runs the study driver
//     (harness.Run: full cycle-level simulation and MEGsim-sampled
//     simulation) over randomized synthetic workloads and reports
//     per-metric relative error
//     (cycles, DRAM/L2/tile-cache accesses, per-stage energy) against
//     configurable tolerance bands — the cross-validation discipline
//     SimPoint-descendant sampling methodologies live or die on.
//
//   - Invariant hooks (Invariants, implementing tbr.FrameChecker)
//     threaded into the timing simulator: cache hits+misses equals
//     accesses, DRAM read/write and row-hit/row-miss consistency,
//     cycle-accounting consistency, processor-occupancy bounds,
//     monotonically non-decreasing cumulative energy, and per-queue
//     occupancy-never-exceeds-capacity checks. All are zero-cost when
//     disabled (a nil-check per frame, a bool per queue admit).
//
//   - A deterministic, seed-driven fault-injection layer
//     (tbr.FaultConfig) the oracle and tests use to verify both that
//     the invariant checks actually fire and that the clustering error
//     degrades gracefully — visibly in the accuracy report — rather
//     than silently.
//
// cmd/megsim (-validate) and cmd/experiments (validate subcommand)
// surface the oracle as a JSON accuracy report; `make validate` gates
// CI on the error bands holding across fixed seeds.
package check

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/power"
	"repro/internal/tbr"
)

// Violation is one recorded invariant failure.
type Violation struct {
	// Frame is the frame whose statistics violated the invariant.
	Frame int `json:"frame"`
	// Rule names the violated invariant.
	Rule string `json:"rule"`
	// Detail is a human-readable description with the observed values.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("frame %d: %s: %s", v.Frame, v.Rule, v.Detail)
}

// Invariants verifies per-frame simulator invariants. It implements
// tbr.FrameChecker; attach one via tbr.Config.Check. It is safe for
// concurrent use (the frame-parallel drivers share one checker across
// workers).
//
// In the default record mode CheckFrame collects violations and lets
// the simulation continue; Strict() switches to fail-fast, where the
// first violation aborts the run.
type Invariants struct {
	cfg    tbr.Config
	energy power.EnergyModel
	strict bool

	mu         sync.Mutex
	cumEnergy  float64
	frames     int
	violations []Violation
}

// NewInvariants builds a checker for simulations running under cfg
// (the configuration provides the occupancy bounds).
func NewInvariants(cfg tbr.Config) *Invariants {
	return &Invariants{cfg: cfg, energy: power.DefaultEnergyModel()}
}

// Strict switches the checker to fail-fast: CheckFrame returns an
// error on the first violation, which aborts the simulation. Returns
// the receiver for chaining.
func (iv *Invariants) Strict() *Invariants {
	iv.strict = true
	return iv
}

// Violations returns a copy of the recorded violations.
func (iv *Invariants) Violations() []Violation {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	out := make([]Violation, len(iv.violations))
	copy(out, iv.violations)
	return out
}

// CheckFrame implements tbr.FrameChecker: it verifies every per-frame
// invariant, records violations, and in strict mode returns the first
// as an error.
func (iv *Invariants) CheckFrame(st *tbr.FrameStats) error {
	var found []Violation
	add := func(rule, format string, args ...any) {
		found = append(found, Violation{Frame: st.Frame, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}

	checkCache := func(name string, hits, misses, accesses, writebacks uint64) {
		if hits+misses != accesses {
			add("cache-access-conservation", "%s cache: hits %d + misses %d != accesses %d", name, hits, misses, accesses)
		}
		if writebacks > accesses {
			add("cache-writeback-bound", "%s cache: writebacks %d > accesses %d", name, writebacks, accesses)
		}
	}
	checkCache("vertex", st.VertexCache.Hits, st.VertexCache.Misses, st.VertexCache.Accesses, st.VertexCache.Writebacks)
	checkCache("texture", st.TextureCache.Hits, st.TextureCache.Misses, st.TextureCache.Accesses, st.TextureCache.Writebacks)
	checkCache("tile", st.TileCache.Hits, st.TileCache.Misses, st.TileCache.Accesses, st.TileCache.Writebacks)
	checkCache("l2", st.L2.Hits, st.L2.Misses, st.L2.Accesses, st.L2.Writebacks)

	if st.DRAM.Reads+st.DRAM.Writes != st.DRAM.Accesses {
		add("dram-access-conservation", "reads %d + writes %d != accesses %d", st.DRAM.Reads, st.DRAM.Writes, st.DRAM.Accesses)
	}
	if st.DRAM.RowHits+st.DRAM.RowMisses != st.DRAM.Accesses {
		add("dram-row-conservation", "row hits %d + row misses %d != accesses %d", st.DRAM.RowHits, st.DRAM.RowMisses, st.DRAM.Accesses)
	}

	if st.GeometryCycles+st.RasterCycles != st.Cycles {
		add("cycle-accounting", "geometry %d + raster %d != total %d", st.GeometryCycles, st.RasterCycles, st.Cycles)
	}

	if vp := uint64(iv.cfg.NumVertexProcessors); vp > 0 && st.VPBusyCycles > vp*st.Cycles {
		add("vp-occupancy", "VP busy %d > %d processors x %d cycles", st.VPBusyCycles, vp, st.Cycles)
	}
	if fp := uint64(iv.cfg.NumFragmentProcessors); fp > 0 && st.FPBusyCycles > fp*st.Cycles {
		add("fp-occupancy", "FP busy %d > %d processors x %d cycles", st.FPBusyCycles, fp, st.Cycles)
	}

	if st.FragmentsShaded+st.FragmentsOccluded > 4*st.QuadsRasterized {
		add("fragment-conservation", "shaded %d + occluded %d > 4 x %d rasterized quads",
			st.FragmentsShaded, st.FragmentsOccluded, st.QuadsRasterized)
	}

	b := iv.energy.FrameEnergy(st)
	total := b.Total()
	if math.IsNaN(total) || math.IsInf(total, 0) || total < 0 ||
		b.Geometry < 0 || b.Tiling < 0 || b.Raster < 0 {
		add("energy-non-negative", "frame energy %v (geometry %v, tiling %v, raster %v)", total, b.Geometry, b.Tiling, b.Raster)
	}

	iv.mu.Lock()
	iv.frames++
	next := iv.cumEnergy + total
	if next < iv.cumEnergy {
		found = append(found, Violation{Frame: st.Frame, Rule: "energy-monotonic",
			Detail: fmt.Sprintf("cumulative energy decreased: %v -> %v", iv.cumEnergy, next)})
	} else {
		iv.cumEnergy = next
	}
	iv.violations = append(iv.violations, found...)
	iv.mu.Unlock()

	if iv.strict && len(found) > 0 {
		return fmt.Errorf("check: invariant violated: %s", found[0])
	}
	return nil
}
