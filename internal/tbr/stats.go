package tbr

import "repro/internal/tbr/mem"

// FrameStats holds everything the simulator measured for one frame.
// These are the "simulation output statistics" MEGsim estimates from
// representatives.
type FrameStats struct {
	// Frame is the frame index within the trace.
	Frame int

	// Cycles is the total frame time; GeometryCycles + RasterCycles.
	Cycles         uint64
	GeometryCycles uint64
	RasterCycles   uint64

	// Geometry activity.
	VerticesShaded uint64
	PrimsIn        uint64
	PrimsVisible   uint64
	VSInstrs       uint64

	// Tiling activity.
	TileEntries uint64 // primitive-tile pairs written by the PLB

	// Raster activity.
	QuadsRasterized   uint64
	FragmentsShaded   uint64
	FragmentsOccluded uint64
	FSInstrs          uint64
	TexAccesses       uint64 // filter-weighted texture cache accesses
	BlendOps          uint64
	FramebufferLines  uint64

	// Unit occupancy: total busy cycles summed over the processor
	// instances (divide by the processor count and frame cycles for
	// utilization).
	VPBusyCycles uint64
	FPBusyCycles uint64

	// Queue back-pressure.
	QueueStallCycles uint64

	// Memory system (per-frame deltas).
	VertexCache  mem.CacheStats
	TextureCache mem.CacheStats // sum over the texture cache instances
	TileCache    mem.CacheStats
	L2           mem.CacheStats
	DRAM         mem.DRAMStats
}

// Add accumulates o into s (Frame is left untouched).
func (s *FrameStats) Add(o *FrameStats) {
	s.Cycles += o.Cycles
	s.GeometryCycles += o.GeometryCycles
	s.RasterCycles += o.RasterCycles
	s.VerticesShaded += o.VerticesShaded
	s.PrimsIn += o.PrimsIn
	s.PrimsVisible += o.PrimsVisible
	s.VSInstrs += o.VSInstrs
	s.TileEntries += o.TileEntries
	s.QuadsRasterized += o.QuadsRasterized
	s.FragmentsShaded += o.FragmentsShaded
	s.FragmentsOccluded += o.FragmentsOccluded
	s.FSInstrs += o.FSInstrs
	s.TexAccesses += o.TexAccesses
	s.BlendOps += o.BlendOps
	s.FramebufferLines += o.FramebufferLines
	s.VPBusyCycles += o.VPBusyCycles
	s.FPBusyCycles += o.FPBusyCycles
	s.QueueStallCycles += o.QueueStallCycles
	addCache(&s.VertexCache, o.VertexCache)
	addCache(&s.TextureCache, o.TextureCache)
	addCache(&s.TileCache, o.TileCache)
	addCache(&s.L2, o.L2)
	s.DRAM.Accesses += o.DRAM.Accesses
	s.DRAM.Reads += o.DRAM.Reads
	s.DRAM.Writes += o.DRAM.Writes
	s.DRAM.RowHits += o.DRAM.RowHits
	s.DRAM.RowMisses += o.DRAM.RowMisses
	s.DRAM.BusyCycles += o.DRAM.BusyCycles
}

// Scale multiplies every counter by n — how MEGsim extrapolates a
// cluster representative's statistics to the cluster's size.
func (s FrameStats) Scale(n uint64) FrameStats {
	out := s
	out.Cycles *= n
	out.GeometryCycles *= n
	out.RasterCycles *= n
	out.VerticesShaded *= n
	out.PrimsIn *= n
	out.PrimsVisible *= n
	out.VSInstrs *= n
	out.TileEntries *= n
	out.QuadsRasterized *= n
	out.FragmentsShaded *= n
	out.FragmentsOccluded *= n
	out.FSInstrs *= n
	out.TexAccesses *= n
	out.BlendOps *= n
	out.FramebufferLines *= n
	out.VPBusyCycles *= n
	out.FPBusyCycles *= n
	out.QueueStallCycles *= n
	out.VertexCache = scaleCache(s.VertexCache, n)
	out.TextureCache = scaleCache(s.TextureCache, n)
	out.TileCache = scaleCache(s.TileCache, n)
	out.L2 = scaleCache(s.L2, n)
	out.DRAM.Accesses *= n
	out.DRAM.Reads *= n
	out.DRAM.Writes *= n
	out.DRAM.RowHits *= n
	out.DRAM.RowMisses *= n
	out.DRAM.BusyCycles *= n
	return out
}

// ScaleF scales every counter by a non-negative float factor, rounding
// to nearest. The degraded-mode estimator uses it to rescale cluster
// weights when quarantined clusters drop out of the extrapolation;
// integer Scale remains the exact path for whole-cluster weights.
func (s FrameStats) ScaleF(f float64) FrameStats {
	mul := func(v uint64) uint64 { return uint64(float64(v)*f + 0.5) }
	out := s
	out.Cycles = mul(s.Cycles)
	out.GeometryCycles = mul(s.GeometryCycles)
	out.RasterCycles = mul(s.RasterCycles)
	out.VerticesShaded = mul(s.VerticesShaded)
	out.PrimsIn = mul(s.PrimsIn)
	out.PrimsVisible = mul(s.PrimsVisible)
	out.VSInstrs = mul(s.VSInstrs)
	out.TileEntries = mul(s.TileEntries)
	out.QuadsRasterized = mul(s.QuadsRasterized)
	out.FragmentsShaded = mul(s.FragmentsShaded)
	out.FragmentsOccluded = mul(s.FragmentsOccluded)
	out.FSInstrs = mul(s.FSInstrs)
	out.TexAccesses = mul(s.TexAccesses)
	out.BlendOps = mul(s.BlendOps)
	out.FramebufferLines = mul(s.FramebufferLines)
	out.VPBusyCycles = mul(s.VPBusyCycles)
	out.FPBusyCycles = mul(s.FPBusyCycles)
	out.QueueStallCycles = mul(s.QueueStallCycles)
	out.VertexCache = scaleCacheF(s.VertexCache, f)
	out.TextureCache = scaleCacheF(s.TextureCache, f)
	out.TileCache = scaleCacheF(s.TileCache, f)
	out.L2 = scaleCacheF(s.L2, f)
	out.DRAM.Accesses = mul(s.DRAM.Accesses)
	out.DRAM.Reads = mul(s.DRAM.Reads)
	out.DRAM.Writes = mul(s.DRAM.Writes)
	out.DRAM.RowHits = mul(s.DRAM.RowHits)
	out.DRAM.RowMisses = mul(s.DRAM.RowMisses)
	out.DRAM.BusyCycles = mul(s.DRAM.BusyCycles)
	return out
}

// VPUtilization returns the average vertex-processor utilization given
// the processor count (0 when no cycles elapsed).
func (s *FrameStats) VPUtilization(numVP int) float64 {
	if s.Cycles == 0 || numVP <= 0 {
		return 0
	}
	return float64(s.VPBusyCycles) / float64(s.Cycles) / float64(numVP)
}

// FPUtilization returns the average fragment-processor utilization given
// the processor count (0 when no cycles elapsed).
func (s *FrameStats) FPUtilization(numFP int) float64 {
	if s.Cycles == 0 || numFP <= 0 {
		return 0
	}
	return float64(s.FPBusyCycles) / float64(s.Cycles) / float64(numFP)
}

// instructions returns the total shader instructions executed.
func (s *FrameStats) instructions() uint64 { return s.VSInstrs + s.FSInstrs }

// IPC returns shader instructions per cycle across all processors.
func (s *FrameStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.instructions()) / float64(s.Cycles)
}

func addCache(dst *mem.CacheStats, src mem.CacheStats) {
	dst.Accesses += src.Accesses
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Writebacks += src.Writebacks
}

func subCache(a, b mem.CacheStats) mem.CacheStats {
	return mem.CacheStats{
		Accesses:   a.Accesses - b.Accesses,
		Hits:       a.Hits - b.Hits,
		Misses:     a.Misses - b.Misses,
		Writebacks: a.Writebacks - b.Writebacks,
	}
}

func scaleCache(s mem.CacheStats, n uint64) mem.CacheStats {
	return mem.CacheStats{
		Accesses:   s.Accesses * n,
		Hits:       s.Hits * n,
		Misses:     s.Misses * n,
		Writebacks: s.Writebacks * n,
	}
}

func scaleCacheF(s mem.CacheStats, f float64) mem.CacheStats {
	mul := func(v uint64) uint64 { return uint64(float64(v)*f + 0.5) }
	return mem.CacheStats{
		Accesses:   mul(s.Accesses),
		Hits:       mul(s.Hits),
		Misses:     mul(s.Misses),
		Writebacks: mul(s.Writebacks),
	}
}

func subDRAM(a, b mem.DRAMStats) mem.DRAMStats {
	return mem.DRAMStats{
		Accesses:   a.Accesses - b.Accesses,
		Reads:      a.Reads - b.Reads,
		Writes:     a.Writes - b.Writes,
		RowHits:    a.RowHits - b.RowHits,
		RowMisses:  a.RowMisses - b.RowMisses,
		BusyCycles: a.BusyCycles - b.BusyCycles,
	}
}
