// Package tbr implements the cycle-level timing simulator of the
// Tile-Based Rendering GPU described in Section II-A and Table I of the
// paper — the role TEAPOT's cycle-accurate simulator plays in the
// original evaluation.
//
// The model is transaction-level cycle accounting: every work item
// (vertex, primitive, tile-list entry, 2x2 fragment quad, cache-line
// transfer) advances per-unit clocks through latency and throughput
// constraints; bounded queues impose back-pressure; all caches and the
// DRAM are simulated per access. A frame is simulated as the TBR
// two-pass sequence: the Geometry Pipeline plus Tiling Engine first
// (producing per-tile primitive lists), then the Raster Pipeline
// processing tiles one at a time through four parallel fragment
// processors.
package tbr

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/tbr/mem"
)

// Config is the GPU configuration (Table I). DefaultConfig returns the
// paper's values; experiments vary individual fields.
type Config struct {
	// FrequencyMHz and VoltageV are carried for reporting and the
	// power model; they do not change cycle counts.
	FrequencyMHz int
	VoltageV     float64

	// TileSize is the square tile edge in pixels.
	TileSize int

	// NumVertexProcessors and NumFragmentProcessors are the
	// programmable-stage widths.
	NumVertexProcessors   int
	NumFragmentProcessors int

	// Queue entries (Table I).
	VertexQueueEntries   int
	TriangleQueueEntries int
	FragmentQueueEntries int
	ColorQueueEntries    int

	// EarlyZInFlight is the number of in-flight quad-fragments in the
	// Early Z-Test stage.
	EarlyZInFlight int

	// Caches. TextureCache is replicated NumTextureCaches times.
	VertexCache      mem.CacheConfig
	TextureCache     mem.CacheConfig
	NumTextureCaches int
	TileCache        mem.CacheConfig
	L2               mem.CacheConfig

	// DRAM is the main memory model.
	DRAM mem.DRAMConfig

	// DeferredShading enables PowerVR-style Hidden Surface Removal
	// (TBDR, Section IV-A's suggested extension): within each tile all
	// primitives are depth-resolved before any fragment is shaded, so
	// exactly one fragment per covered pixel is shaded regardless of
	// draw order — overdraw costs rasterization but never shading.
	// (Transparency/blending order is not modeled in this mode.)
	DeferredShading bool

	// FlushCachesPerFrame makes every frame start cold, so a frame
	// simulated in isolation (a MEGsim cluster representative) is
	// bit-identical to the same frame simulated mid-sequence. This is
	// how the methodology sidesteps the architectural-state starting
	// image problem of sampled simulation.
	FlushCachesPerFrame bool

	// Obs, when non-nil and enabled, receives metrics and per-stage
	// timeline spans from the simulator (package obs). SimulateFrames
	// gives each worker a local registry and merges them into this one
	// at join time, so instrumented parallel runs are
	// race-free and deterministic. Nil disables observability at the
	// cost of one branch per instrumentation point.
	Obs *obs.Registry

	// Faults is the deterministic fault-injection layer used by the
	// validation subsystem (internal/check) to perturb the simulated
	// microarchitecture. The zero value injects nothing.
	Faults FaultConfig

	// Check, when non-nil, receives every completed frame's statistics
	// for invariant verification (internal/check.Invariants is the
	// standard implementation) and arms the per-queue occupancy checks.
	// A non-nil error from CheckFrame aborts the run via panic
	// (SimulateFrames converts it back into an error). Nil disables all
	// checking at the cost of one branch per frame.
	Check FrameChecker
}

// FrameChecker verifies invariants over completed frame statistics.
// Implementations must be safe for concurrent use: SimulateFrames
// shares one checker across workers.
type FrameChecker interface {
	CheckFrame(st *FrameStats) error
}

// DefaultConfig returns the Table I configuration.
func DefaultConfig() Config {
	return Config{
		FrequencyMHz:          600,
		VoltageV:              1.0,
		TileSize:              32,
		NumVertexProcessors:   4,
		NumFragmentProcessors: 4,
		VertexQueueEntries:    16,
		TriangleQueueEntries:  16,
		FragmentQueueEntries:  64,
		ColorQueueEntries:     64,
		EarlyZInFlight:        8,
		VertexCache: mem.CacheConfig{
			Name: "vertex", SizeBytes: 4 << 10, LineBytes: 64, Ways: 2, Latency: 1, Banks: 1,
		},
		TextureCache: mem.CacheConfig{
			Name: "texture", SizeBytes: 8 << 10, LineBytes: 64, Ways: 2, Latency: 2, Banks: 1,
		},
		NumTextureCaches: 4,
		TileCache: mem.CacheConfig{
			Name: "tile", SizeBytes: 32 << 10, LineBytes: 64, Ways: 2, Latency: 2, Banks: 1,
		},
		L2: mem.CacheConfig{
			Name: "l2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 2, Latency: 18, Banks: 8,
		},
		DRAM:                mem.DefaultDRAMConfig(),
		FlushCachesPerFrame: true,
	}
}

// validate reports configuration errors.
func (c Config) validate() error {
	if c.TileSize <= 0 || c.TileSize%2 != 0 {
		return fmt.Errorf("tbr: tile size %d must be positive and even", c.TileSize)
	}
	if c.NumVertexProcessors <= 0 || c.NumFragmentProcessors <= 0 {
		return fmt.Errorf("tbr: processor counts must be positive")
	}
	if c.NumTextureCaches <= 0 {
		return fmt.Errorf("tbr: need at least one texture cache")
	}
	if c.VertexQueueEntries <= 0 || c.TriangleQueueEntries <= 0 ||
		c.FragmentQueueEntries <= 0 || c.ColorQueueEntries <= 0 {
		return fmt.Errorf("tbr: queue entries must be positive")
	}
	if c.EarlyZInFlight <= 0 {
		return fmt.Errorf("tbr: EarlyZInFlight must be positive")
	}
	if err := c.Faults.validate(); err != nil {
		return err
	}
	for _, cc := range []mem.CacheConfig{c.VertexCache, c.TextureCache, c.TileCache, c.L2} {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("tbr: %w", err)
		}
	}
	return nil
}
