package tbr

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/raster"
	"repro/internal/shader"
	"repro/internal/tbr/mem"
	"repro/internal/tbr/queue"
)

// Memory map: disjoint regions keep the access streams of the different
// producers from aliasing.
const (
	vertexRegion  uint64 = 0x0000_0000
	textureRegion uint64 = 0x1000_0000
	plbRegion     uint64 = 0x4000_0000
	fbRegion      uint64 = 0x8000_0000

	// plbRecordBytes is the size of one primitive record in a tile's
	// polygon list (vertex positions + attribute pointers).
	plbRecordBytes = 32
)

// Simulator runs the timing model over one trace. It is not safe for
// concurrent use; create one simulator per goroutine.
type Simulator struct {
	cfg   Config
	trace *gltrace.Trace

	dram      *mem.DRAM
	l2        *mem.Cache
	vcache    *mem.Cache
	tilecache *mem.Cache
	tcaches   []*mem.Cache

	vertexQ   *queue.Queue
	triangleQ *queue.Queue
	fragmentQ *queue.Queue
	colorQ    *queue.Queue

	// Precomputed shader cost tables: per-program instruction counts and
	// texture instruction lists with all per-fetch constants resolved at
	// construction (see fsTable), so the fragment loop does no repeated
	// conversion, modulo or coordinate-offset work.
	vsCost []shader.Cost
	fsTab  []fsTable

	// texLineShift is log2 of the texture-cache line size (validated a
	// power of two), so the texture chain's line dedup uses shifts.
	texLineShift uint

	// Resource base addresses.
	meshBase []uint64
	texBase  []uint64

	// Tiling.
	tilesX, tilesY int

	// Reused per-frame buffers.
	depth       *raster.DepthBuffer
	tris        []boundTri
	bins        [][]int32 // per tile: indices into tris
	binRec      [][]uint64
	vpFree      []uint64
	triBuf      []raster.ScreenTriangle
	drawScratch raster.DrawScratch

	// Raster Pipeline state: the fragment processors' free cycles and
	// the buffers the raster stage reuses for every tile.
	fpFree []uint64

	// batch is the per-triangle rasterization scratch: AppendQuads fills
	// it, the fragment loop iterates its flat slices, and the backing
	// arrays are reused for every triangle of every tile.
	batch raster.QuadBatch

	// Deferred-shading (TBDR) buffers, reused per tile.
	deferred    taggedQuads
	transparent taggedQuads
	shadedPix   []bool

	// texMemo caches the per-texture constants textureChain derives
	// from the bound texture. A draw binds one texture, so consecutive
	// quads nearly always hit; the values are pure functions of the
	// immutable trace, so the memo survives tile and frame boundaries.
	texMemo struct {
		ok     bool
		tex    int32
		base   uint64
		mip    uint64 // second mip level base (past the base image)
		w, h   int
		fw, fh float64
		bpt    int
	}

	// Observability (package obs), rebound by SetObs.
	simObs
	frameTilingEnd uint64 // completion cycle of the frame's last PLB write
	frameFPEnd     uint64 // completion cycle of the frame's last shaded quad
}

// simObs holds the simulator's observability handles; all are nil when
// instrumentation is disabled. The simulation hot paths stay
// uninstrumented: additive metrics (cache hits, DRAM traffic, queue
// stalls) are exported once per frame from the per-frame stat deltas the
// simulator computes anyway, the stage-end markers are folded in at
// tile/pass granularity, and the only per-event cost left is the
// queues' occupancy tally, folded into its histogram at frame end.
type simObs struct {
	obs            *obs.Registry
	cFrames        *obs.Counter
	cGeomCycles    *obs.Counter
	cTilingCycles  *obs.Counter
	cRasterCycles  *obs.Counter
	cFragBusy      *obs.Counter
	hFrameCycles   *obs.Histogram
	obsVCache      cacheObs
	obsTexCache    cacheObs
	obsTileCache   cacheObs
	obsL2          cacheObs
	cDRAMReads     *obs.Counter
	cDRAMWrites    *obs.Counter
	cDRAMRowHits   *obs.Counter
	cDRAMRowMisses *obs.Counter
	obsQueues      []*queueObs
}

// cacheObs exports one cache's per-frame stat deltas as counters.
type cacheObs struct {
	hits, misses, writebacks *obs.Counter
}

func newCacheObs(r *obs.Registry, name string) cacheObs {
	return cacheObs{
		hits:       r.Counter("mem." + name + ".hits"),
		misses:     r.Counter("mem." + name + ".misses"),
		writebacks: r.Counter("mem." + name + ".writebacks"),
	}
}

func (c *cacheObs) record(st mem.CacheStats) {
	c.hits.Add(st.Hits)
	c.misses.Add(st.Misses)
	c.writebacks.Add(st.Writebacks)
}

// queueObs exports one queue's per-frame stat deltas as counters and
// its occupancy tally as a histogram; start snapshots the cumulative
// Stats at frame begin.
type queueObs struct {
	q                             *queue.Queue
	start                         queue.Stats
	admitted, stalls, stallCycles *obs.Counter
}

func newQueueObs(r *obs.Registry, q *queue.Queue) *queueObs {
	q.Instrument(r) // occupancy histogram, tallied at each admit
	return &queueObs{
		q:           q,
		admitted:    r.Counter("queue." + q.Name() + ".admitted"),
		stalls:      r.Counter("queue." + q.Name() + ".stalls"),
		stallCycles: r.Counter("queue." + q.Name() + ".stall_cycles"),
	}
}

func (qo *queueObs) record() {
	d := qo.q.Stats
	qo.admitted.Add(d.Admitted - qo.start.Admitted)
	qo.stalls.Add(d.Stalls - qo.start.Stalls)
	qo.stallCycles.Add(d.StallCycles - qo.start.StallCycles)
	qo.q.RecordOccupancy()
}

// taggedQuads is a list of quads awaiting a later shade pass (the TBDR
// deferred and transparency queues): a raster.QuadBatch plus, in
// tri[i], the index of quad i's triangle in the frame's triangle list.
// The backing arrays are reused across tiles.
type taggedQuads struct {
	raster.QuadBatch
	tri []int32
}

func (l *taggedQuads) reset() {
	l.Reset()
	l.tri = l.tri[:0]
}

// appendFrom copies quad i of b, tagged with its triangle index.
func (l *taggedQuads) appendFrom(b *raster.QuadBatch, i int, tri int32) {
	l.X = append(l.X, b.X[i])
	l.Y = append(l.Y, b.Y[i])
	l.Mask = append(l.Mask, b.Mask[i])
	l.Depth = append(l.Depth, b.Depth[i*4:i*4+4]...)
	l.U = append(l.U, b.U[i])
	l.V = append(l.V, b.V[i])
	l.tri = append(l.tri, tri)
}

// boundTri is a visible screen triangle with the state it was drawn
// under.
type boundTri struct {
	tri   raster.ScreenTriangle
	fs    int32
	tex   int32 // texture bound at unit 0 (materials bind one texture)
	blend bool  // alpha-blended draw: depth-test only, no depth write
}

// texFetch is one texture instruction of a fragment shader, with every
// per-fetch constant the texture chain needs resolved at construction:
// the texture-cache unit (sampler modulo unit count), the filter's
// logical tap count, and the sampler's UV perturbation offsets.
type texFetch struct {
	sampler int
	filter  shader.FilterMode
	taps    uint64
	unit    int     // sampler % NumTextureCaches
	du, dv  float64 // float64(sampler)*0.37, float64(sampler)*0.19
}

// fsTable is the precomputed cost table of one fragment shader: the
// per-quad instruction charge and the resolved texture fetch list.
type fsTable struct {
	instrs uint64
	tex    []texFetch
}

// New builds a simulator for the trace. The trace must validate.
func New(cfg Config, trace *gltrace.Trace) (*Simulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, trace: trace}

	s.dram = mem.NewDRAM(cfg.Faults.perturbDRAM(scaleDRAMToGPUClock(cfg.DRAM, cfg.FrequencyMHz)))
	s.l2 = mem.NewCache(cfg.L2, s.dram)
	s.vcache = mem.NewCache(cfg.VertexCache, s.l2)
	s.tilecache = mem.NewCache(cfg.TileCache, s.l2)
	for i := 0; i < cfg.NumTextureCaches; i++ {
		tc := cfg.TextureCache
		tc.Name = fmt.Sprintf("texture%d", i)
		s.tcaches = append(s.tcaches, mem.NewCache(tc, s.l2))
	}

	s.vertexQ = queue.New("vertex", cfg.VertexQueueEntries)
	s.triangleQ = queue.New("triangle", cfg.TriangleQueueEntries)
	s.fragmentQ = queue.New("fragment", cfg.FragmentQueueEntries)
	s.colorQ = queue.New("color", cfg.ColorQueueEntries)
	if cfg.Check != nil {
		for _, q := range []*queue.Queue{s.vertexQ, s.triangleQ, s.fragmentQ, s.colorQ} {
			q.EnableInvariantCheck()
		}
	}

	for _, p := range trace.VertexShaders {
		s.vsCost = append(s.vsCost, p.DynamicCost())
	}
	for _, p := range trace.FragmentShaders {
		cost := p.DynamicCost()
		s.fsTab = append(s.fsTab, fsTable{
			instrs: uint64(cost.Instructions),
			tex:    texFetches(p, cfg.NumTextureCaches),
		})
	}
	// TextureCache.LineBytes is validated a power of two by NewCache.
	for 1<<s.texLineShift < cfg.TextureCache.LineBytes {
		s.texLineShift++
	}

	// Lay out resources.
	addr := vertexRegion
	for i := range trace.Meshes {
		s.meshBase = append(s.meshBase, addr)
		addr += uint64(len(trace.Meshes[i].Vertices) * gltrace.BytesPerVertex)
		addr = align(addr, 64)
	}
	addr = textureRegion
	for i := range trace.Textures {
		s.texBase = append(s.texBase, addr)
		// Reserve space for the base level plus a mip chain.
		addr += uint64(trace.Textures[i].SizeBytes() * 2)
		addr = align(addr, 64)
	}

	vp := trace.Viewport
	s.tilesX = (vp.Width + cfg.TileSize - 1) / cfg.TileSize
	s.tilesY = (vp.Height + cfg.TileSize - 1) / cfg.TileSize
	s.depth = raster.NewDepthBuffer(vp.Width, vp.Height)
	s.bins = make([][]int32, s.tilesX*s.tilesY)
	s.binRec = make([][]uint64, s.tilesX*s.tilesY)
	s.vpFree = make([]uint64, cfg.NumVertexProcessors)
	s.fpFree = make([]uint64, cfg.NumFragmentProcessors)

	s.SetObs(cfg.Obs)
	return s, nil
}

// SetObs rebinds the simulator's instrumentation to r (nil
// turns it off), exactly as if it had been built with Config.Obs = r.
// Later frames record into r only; nothing already recorded moves.
// With FlushCachesPerFrame every frame cold-starts, so a simulator
// rebound between frames gives the same FrameStats and the same obs
// deltas as a fresh one — what lets callers keep one simulator per
// worker instead of building (and re-validating the trace) per frame.
func (s *Simulator) SetObs(r *obs.Registry) {
	s.cfg.Obs = r
	s.simObs = simObs{}
	queues := []*queue.Queue{s.vertexQ, s.triangleQ, s.fragmentQ, s.colorQ}
	if !r.Enabled() {
		for _, q := range queues {
			q.Instrument(nil)
		}
		return
	}
	s.simObs = simObs{
		obs:            r,
		cFrames:        r.Counter("tbr.frames"),
		cGeomCycles:    r.Counter("tbr.geometry.cycles"),
		cTilingCycles:  r.Counter("tbr.tiling.cycles"),
		cRasterCycles:  r.Counter("tbr.raster.cycles"),
		cFragBusy:      r.Counter("tbr.fragment.busy_cycles"),
		hFrameCycles:   r.Histogram("tbr.frame_cycles"),
		obsVCache:      newCacheObs(r, "vertex"),
		obsTexCache:    newCacheObs(r, "texture"),
		obsTileCache:   newCacheObs(r, "tile"),
		obsL2:          newCacheObs(r, "l2"),
		cDRAMReads:     r.Counter("mem.dram.reads"),
		cDRAMWrites:    r.Counter("mem.dram.writes"),
		cDRAMRowHits:   r.Counter("mem.dram.row_hits"),
		cDRAMRowMisses: r.Counter("mem.dram.row_misses"),
	}
	for _, q := range queues {
		s.obsQueues = append(s.obsQueues, newQueueObs(r, q))
	}
}

func align(a uint64, to uint64) uint64 {
	return (a + to - 1) &^ (to - 1)
}

func texFetches(p *shader.Program, numTextureCaches int) []texFetch {
	var out []texFetch
	var walk func(code []shader.Instr, mult int)
	walk = func(code []shader.Instr, mult int) {
		for i := range code {
			in := &code[i]
			switch in.Op {
			case shader.OpTex:
				for m := 0; m < mult; m++ {
					out = append(out, texFetch{
						sampler: in.Sampler,
						filter:  in.Filter,
						taps:    uint64(in.Filter.MemAccesses()),
						unit:    in.Sampler % numTextureCaches,
						du:      float64(in.Sampler) * 0.37,
						dv:      float64(in.Sampler) * 0.19,
					})
				}
			case shader.OpIf:
				walk(in.Body, mult)
				walk(in.Else, mult)
			case shader.OpLoop:
				walk(in.Body, mult*in.Count)
			}
		}
	}
	walk(p.Code, 1)
	return out
}

// SimulateFrame runs the timing model for frame f (0-based) and returns
// its statistics. With FlushCachesPerFrame set (the default), the result
// is independent of which frames were simulated before — the property
// MEGsim relies on to simulate only cluster representatives.
func (s *Simulator) SimulateFrame(f int) FrameStats {
	if f < 0 || f >= s.trace.NumFrames() {
		panic(fmt.Sprintf("tbr: frame %d out of range [0,%d)", f, s.trace.NumFrames()))
	}
	st := FrameStats{Frame: f}
	s.frameTilingEnd = 0
	s.frameFPEnd = 0

	// Snapshot memory-system stats to compute per-frame deltas.
	vc0 := s.vcache.Stats
	tc0 := s.tilecache.Stats
	l20 := s.l2.Stats
	dr0 := s.dram.Stats
	var tex0 mem.CacheStats
	for _, c := range s.tcaches {
		addCache(&tex0, c.Stats)
	}
	q0 := s.queueStallCycles()
	for _, qo := range s.obsQueues {
		qo.start = qo.q.Stats
	}

	if s.cfg.FlushCachesPerFrame {
		s.coldStart()
	} else {
		s.dram.ResetTime()
		s.resetQueues()
	}

	geomEnd := s.geometryPass(&st)
	rasterEnd := s.rasterPass(&st, geomEnd)

	// End-of-frame: dirty framebuffer/PLB data drains to memory. In the
	// per-frame cold-start mode the caches are also invalidated (they
	// will be wiped at the next frame's start anyway); in warm mode the
	// contents stay resident so the next frame can hit on them.
	flushEnd := rasterEnd
	if s.cfg.FlushCachesPerFrame {
		flushEnd = max(flushEnd, s.tilecache.Flush(rasterEnd))
		flushEnd = max(flushEnd, s.vcache.Flush(rasterEnd))
		for _, c := range s.tcaches {
			flushEnd = max(flushEnd, c.Flush(rasterEnd))
		}
		flushEnd = max(flushEnd, s.l2.Flush(flushEnd))
	} else {
		flushEnd = max(flushEnd, s.tilecache.WritebackAll(rasterEnd))
		flushEnd = max(flushEnd, s.vcache.WritebackAll(rasterEnd))
		for _, c := range s.tcaches {
			flushEnd = max(flushEnd, c.WritebackAll(rasterEnd))
		}
		flushEnd = max(flushEnd, s.l2.WritebackAll(flushEnd))
	}

	st.GeometryCycles = geomEnd
	st.RasterCycles = flushEnd - geomEnd
	st.Cycles = flushEnd

	st.VertexCache = subCache(s.vcache.Stats, vc0)
	st.TileCache = subCache(s.tilecache.Stats, tc0)
	st.L2 = subCache(s.l2.Stats, l20)
	st.DRAM = subDRAM(s.dram.Stats, dr0)
	var tex1 mem.CacheStats
	for _, c := range s.tcaches {
		addCache(&tex1, c.Stats)
	}
	st.TextureCache = subCache(tex1, tex0)
	st.QueueStallCycles = s.queueStallCycles() - q0

	if s.obs.Enabled() {
		s.recordFrameObs(&st, geomEnd, flushEnd)
	}
	if s.cfg.Faults.CorruptStats {
		s.cfg.Faults.corruptFrameStats(&st)
	}
	if s.cfg.Check != nil {
		if err := s.cfg.Check.CheckFrame(&st); err != nil {
			panic(fmt.Sprintf("tbr: frame %d: %v", f, err))
		}
	}
	return st
}

// recordFrameObs emits the frame's per-stage timeline spans and metric
// updates. Timestamps are simulated cycles; each frame gets its own
// timeline track (tid), so a Chrome trace shows the four pipeline
// stages of every frame side by side.
func (s *Simulator) recordFrameObs(st *FrameStats, geomEnd, flushEnd uint64) {
	tid := uint64(st.Frame)
	s.cFrames.Inc()
	s.cGeomCycles.Add(geomEnd)
	s.cTilingCycles.Add(s.frameTilingEnd)
	s.cRasterCycles.Add(st.RasterCycles)
	s.cFragBusy.Add(st.FPBusyCycles)
	s.hFrameCycles.Observe(st.Cycles)
	s.obsVCache.record(st.VertexCache)
	s.obsTexCache.record(st.TextureCache)
	s.obsTileCache.record(st.TileCache)
	s.obsL2.record(st.L2)
	s.cDRAMReads.Add(st.DRAM.Reads)
	s.cDRAMWrites.Add(st.DRAM.Writes)
	s.cDRAMRowHits.Add(st.DRAM.RowHits)
	s.cDRAMRowMisses.Add(st.DRAM.RowMisses)
	for _, qo := range s.obsQueues {
		qo.record()
	}

	s.obs.Span("frame", tid, 0, st.Cycles, map[string]uint64{
		"frame":            uint64(st.Frame),
		"vertices_shaded":  st.VerticesShaded,
		"fragments_shaded": st.FragmentsShaded,
		"dram_accesses":    st.DRAM.Accesses,
	})
	s.obs.Span("geometry", tid, 0, geomEnd, nil)
	if s.frameTilingEnd > 0 {
		s.obs.Span("tiling", tid, 0, s.frameTilingEnd, nil)
	}
	s.obs.Span("raster", tid, geomEnd, flushEnd-geomEnd, nil)
	if s.frameFPEnd > geomEnd {
		s.obs.Span("fragment", tid, geomEnd, s.frameFPEnd-geomEnd, nil)
	}
}

// SimulateAll simulates every frame in order, returning per-frame stats.
// progress, if non-nil, is called after each frame.
func (s *Simulator) SimulateAll(progress func(frame int)) []FrameStats {
	out := make([]FrameStats, s.trace.NumFrames())
	for f := 0; f < s.trace.NumFrames(); f++ {
		out[f] = s.SimulateFrame(f)
		if progress != nil {
			progress(f)
		}
	}
	return out
}

func (s *Simulator) queueStallCycles() uint64 {
	return s.vertexQ.Stats.StallCycles + s.triangleQ.Stats.StallCycles +
		s.fragmentQ.Stats.StallCycles + s.colorQ.Stats.StallCycles
}

// coldStart drops all cached state without writebacks (the previous
// frame already flushed) and rewinds all unit clocks to zero.
func (s *Simulator) coldStart() {
	s.vcache.ColdStart()
	s.tilecache.ColdStart()
	s.l2.ColdStart()
	for _, c := range s.tcaches {
		c.ColdStart()
	}
	dst := s.dram.Stats
	s.dram.Reset()
	s.dram.Stats = dst
	s.resetQueues()
}

func (s *Simulator) resetQueues() {
	s.vertexQ.ResetTime()
	s.triangleQ.ResetTime()
	s.fragmentQ.ResetTime()
	s.colorQ.ResetTime()
}

// geometryPass simulates the Geometry Pipeline and Tiling Engine for the
// frame, filling the per-tile bins, and returns the cycle at which the
// pass (including the last polygon-list write) completes.
func (s *Simulator) geometryPass(st *FrameStats) uint64 {
	frame := &s.trace.Frames[st.Frame]
	vp := s.trace.Viewport

	s.tris = s.tris[:0]
	for i := range s.bins {
		s.bins[i] = s.bins[i][:0]
		s.binRec[i] = s.binRec[i][:0]
	}
	for i := range s.vpFree {
		s.vpFree[i] = 0
	}

	var (
		fetchClock uint64 // vertex fetcher issue clock, 1 vertex/cycle
		paClock    uint64 // primitive assembly, 1 vertex/cycle
		clipClock  uint64 // clip & cull, 1 prim/cycle
		plbClock   uint64 // polygon list builder, 1 entry/cycle
		plbAddr    = plbRegion
		lastDone   uint64
		tilingEnd  uint64 // completion of the last PLB write
		curVS      int32  = -1
		curFS      int32  = -1
		curTex     int32
		draw       int // index of the next draw's transform in frame.MVPs
	)

	for ci := range frame.Commands {
		cmd := &frame.Commands[ci]
		switch cmd.Op {
		case gltrace.CmdBindProgram:
			curVS, curFS = cmd.VS, cmd.FS
		case gltrace.CmdBindTexture:
			if cmd.Unit == 0 {
				curTex = cmd.Texture
			}
		case gltrace.CmdClear:
			// On-chip tile buffers clear at tile start; no memory
			// traffic and negligible time.
		case gltrace.CmdDraw:
			mesh := &s.trace.Meshes[cmd.Mesh]
			vsCost := s.vsCost[curVS]

			// Vertex fetch + vertex shading. Each indexed vertex is
			// fetched and shaded once per draw.
			nv := len(mesh.Vertices)
			st.VerticesShaded += uint64(nv)
			st.VSInstrs += uint64(nv) * uint64(vsCost.Instructions)
			base := s.meshBase[cmd.Mesh]
			var drawShaded uint64
			for v := 0; v < nv; v++ {
				fetchClock++
				addr := base + uint64(v*gltrace.BytesPerVertex)
				fetchDone := s.vcache.Access(fetchClock, addr, false)
				enter := s.vertexQ.Admit(fetchDone)
				// Dispatch to the first free vertex processor.
				vpi := 0
				for i := 1; i < len(s.vpFree); i++ {
					if s.vpFree[i] < s.vpFree[vpi] {
						vpi = i
					}
				}
				start := max(enter, s.vpFree[vpi])
				done := start + uint64(vsCost.Instructions)
				st.VPBusyCycles += uint64(vsCost.Instructions)
				s.vpFree[vpi] = done
				s.vertexQ.Commit(done)
				if done > drawShaded {
					drawShaded = done
				}
			}
			if drawShaded > lastDone {
				lastDone = drawShaded
			}

			// Geometry processing (visibility) is computed by the
			// shared rasterizer front end; timing is charged below.
			s.triBuf = s.triBuf[:0]
			tris, gstats := raster.ProcessDraw(mesh, frame.MVPs[draw], vp, cmd.DepthBias, s.triBuf, &s.drawScratch)
			draw++
			s.triBuf = tris[:0]
			st.PrimsIn += uint64(gstats.PrimsIn)
			st.PrimsVisible += uint64(gstats.Visible)

			// Primitive assembly consumes 3 vertices/prim at 1
			// vertex/cycle; clipping 1 prim/cycle.
			visIdx := 0
			for p := 0; p < gstats.PrimsIn; p++ {
				paClock = max(paClock+3, drawShaded)
				clipClock = max(clipClock+1, paClock)
			}
			if clipClock > lastDone {
				lastDone = clipClock
			}

			// Tiling Engine: bin each visible prim into overlapped
			// tiles, writing one record per (prim, tile) through L2.
			for t := range tris {
				triIdx := int32(len(s.tris))
				s.tris = append(s.tris, boundTri{tri: tris[t], fs: curFS, tex: curTex, blend: cmd.Blend})
				tx0, ty0, tx1, ty1, ok := tris[t].Tri.OverlappedTiles(s.cfg.TileSize, s.tilesX, s.tilesY)
				if !ok {
					continue
				}
				for ty := ty0; ty <= ty1; ty++ {
					for tx := tx0; tx <= tx1; tx++ {
						bin := ty*s.tilesX + tx
						s.bins[bin] = append(s.bins[bin], triIdx)
						s.binRec[bin] = append(s.binRec[bin], plbAddr)
						st.TileEntries++
						enter := s.triangleQ.Admit(max(plbClock+1, clipClock))
						plbClock = enter
						done := s.l2.Access(enter, plbAddr, true)
						s.triangleQ.Commit(done)
						plbAddr += plbRecordBytes
						if done > lastDone {
							lastDone = done
						}
						if done > tilingEnd {
							tilingEnd = done
						}
					}
				}
				visIdx++
			}
		}
	}
	s.frameTilingEnd = tilingEnd
	end := max(fetchClock, max(paClock, max(clipClock, plbClock)))
	for _, v := range s.vpFree {
		end = max(end, v)
	}
	return max(end, lastDone)
}

// rasterPass simulates the Raster Pipeline and returns the completion
// cycle. Tiles are processed one at a time on the simulator's own units,
// whose caches stay warm across tiles.
func (s *Simulator) rasterPass(st *FrameStats, start uint64) uint64 {
	s.depth.Clear()
	clock := start
	for ty := 0; ty < s.tilesY; ty++ {
		for tx := 0; tx < s.tilesX; tx++ {
			clock = s.runTile(st, ty*s.tilesX+tx, tx, ty, clock)
		}
	}
	return clock
}

// runTile simulates one tile — rasterization, shading, blending and the
// framebuffer writeback — starting at cycle clock, and returns its
// completion cycle. Within the tile the rasterizer, Early-Z, the
// fragment processors and the blender run as a pipeline.
func (s *Simulator) runTile(st *FrameStats, bin, tx, ty int, clock uint64) uint64 {
	vp := s.trace.Viewport
	clip := geom.AABB2{
		Min: geom.Vec2{X: float64(tx * s.cfg.TileSize), Y: float64(ty * s.cfg.TileSize)},
		Max: geom.Vec2{X: float64(min(tx*s.cfg.TileSize+s.cfg.TileSize, vp.Width)),
			Y: float64(min(ty*s.cfg.TileSize+s.cfg.TileSize, vp.Height))},
	}

	// Fault injection: rolls are keyed by (frame, tile), so a frame's
	// fault pattern is identical across worker counts and whether the
	// frame runs standalone or mid-sequence.
	passes := 1
	if fl := &s.cfg.Faults; fl.Enabled() {
		frame := st.Frame
		if fl.StallRate > 0 && fl.StallCycles > 0 && fl.roll(frame, bin, faultClassStall) < fl.StallRate {
			clock += fl.StallCycles
		}
		if fl.DropTileRate > 0 && fl.roll(frame, bin, faultClassDrop) < fl.DropTileRate {
			passes = 0
		} else if fl.DuplicateTileRate > 0 && fl.roll(frame, bin, faultClassDuplicate) < fl.DuplicateTileRate {
			passes = 2
		}
	}

	tileDone := clock
	for p := 0; p < passes; p++ {
		if s.cfg.DeferredShading {
			tileDone = s.deferredTile(st, bin, clip, tileDone)
		} else {
			tileDone = s.immediateTile(st, bin, clip, tileDone)
		}
	}
	if fl := &s.cfg.Faults; fl.CacheFlushRate > 0 && fl.roll(st.Frame, bin, faultClassFlush) < fl.CacheFlushRate {
		tileDone = max(tileDone, s.tilecache.Flush(tileDone))
		for _, tc := range s.tcaches {
			tileDone = max(tileDone, tc.Flush(tileDone))
		}
	}

	// Tile writeback: the resolved tile colors stream to the
	// framebuffer through L2 at one line per cycle.
	tileLines := uint64(s.cfg.TileSize*s.cfg.TileSize*4) / uint64(s.cfg.L2.LineBytes)
	if tileLines == 0 {
		tileLines = 1
	}
	fbAddr := fbRegion + uint64(bin)*uint64(s.cfg.TileSize*s.cfg.TileSize*4)
	wClock := tileDone
	for l := uint64(0); l < tileLines; l++ {
		wClock++
		done := s.l2.Access(wClock, fbAddr+l*uint64(s.cfg.L2.LineBytes), true)
		st.FramebufferLines++
		if done > tileDone {
			tileDone = done
		}
	}
	return max(tileDone, wClock)
}

// immediateTile processes one tile in the classic TBR order: each
// primitive's quads go through Early-Z and, when any sample survives,
// straight to the fragment processors. Returns the tile completion
// cycle.
func (s *Simulator) immediateTile(st *FrameStats, bin int, clip geom.AABB2, clock uint64) uint64 {
	var (
		listClock  = clock
		rastClock  = clock
		ezClock    = clock
		blendClock = clock
		tileDone   = clock
	)
	shaded0 := st.FragmentsShaded
	for i := range s.fpFree {
		s.fpFree[i] = clock
	}

	b := &s.batch
	for bi, triIdx := range s.bins[bin] {
		bt := &s.tris[triIdx]
		// Read the primitive record through the tile cache.
		listClock++
		listDone := s.tilecache.Access(listClock, s.binRec[bin][bi], false)

		// Rasterize the triangle's quads into the SoA batch (pure
		// arithmetic, no timing state), then run the fragment pipeline
		// over the flat slices.
		b.Reset()
		b.AppendQuads(&bt.tri, clip)
		for qi, n := 0, b.Len(); qi < n; qi++ {
			st.QuadsRasterized++
			rastClock = max(rastClock+1, listDone)
			// Early Z at 1 quad/cycle; back-pressure comes from the
			// fragment queue below.
			ezClock = max(ezClock+1, rastClock)
			mask := b.Mask[qi]
			covered := bits.OnesCount8(mask)
			depth := b.Depth[qi*4 : qi*4+4]
			var survive uint8
			if bt.blend {
				survive = s.depth.TestMaskReadOnly(int(b.X[qi]), int(b.Y[qi]), depth, mask)
			} else {
				survive = s.depth.TestMask(int(b.X[qi]), int(b.Y[qi]), depth, mask)
			}
			alive := bits.OnesCount8(survive)
			st.FragmentsOccluded += uint64(covered - alive)
			if alive == 0 {
				continue
			}
			fpDone := s.shadeQuad(st, bt, b.U[qi], b.V[qi], ezClock, alive)
			// Blending into the on-chip color buffer.
			cEnter := s.colorQ.Admit(fpDone)
			blendClock = max(blendClock+1, cEnter)
			s.colorQ.Commit(blendClock)
			st.BlendOps++
			if blendClock > tileDone {
				tileDone = blendClock
			}
		}
	}

	s.noteFPEnd(st.FragmentsShaded - shaded0)
	for _, v := range s.fpFree {
		tileDone = max(tileDone, v)
	}
	return max(tileDone, max(rastClock, max(ezClock, blendClock)))
}

// deferredTile processes one tile TBDR-style: a Hidden Surface Removal
// pass depth-resolves every primitive first, then only the fragments
// that ended up visible are shaded. Returns the tile completion cycle.
func (s *Simulator) deferredTile(st *FrameStats, bin int, clip geom.AABB2, clock uint64) uint64 {
	var (
		listClock  = clock
		rastClock  = clock
		ezClock    = clock
		blendClock = clock
		tileDone   = clock
	)
	shaded0 := st.FragmentsShaded
	for i := range s.fpFree {
		s.fpFree[i] = clock
	}
	s.deferred.reset()
	s.transparent.reset()

	// Pass 1: HSR — rasterize and depth-test all opaque geometry; no
	// shading. Alpha-blended quads cannot participate in hidden-surface
	// removal (they do not occlude); they are queued for the
	// transparency pass after the opaque depth is resolved.
	var covered uint64
	b := &s.batch
	for bi, triIdx := range s.bins[bin] {
		bt := &s.tris[triIdx]
		listClock++
		listDone := s.tilecache.Access(listClock, s.binRec[bin][bi], false)
		b.Reset()
		b.AppendQuads(&bt.tri, clip)
		for qi, n := 0, b.Len(); qi < n; qi++ {
			st.QuadsRasterized++
			rastClock = max(rastClock+1, listDone)
			ezClock = max(ezClock+1, rastClock)
			mask := b.Mask[qi]
			covered += uint64(bits.OnesCount8(mask))
			if bt.blend {
				s.transparent.appendFrom(b, qi, triIdx)
				continue
			}
			depth := b.Depth[qi*4 : qi*4+4]
			if s.depth.TestMask(int(b.X[qi]), int(b.Y[qi]), depth, mask) == 0 {
				continue // already behind a resolved surface
			}
			// Stored with the full rasterized mask: pass 2 re-derives
			// visibility from the resolved depth, as before.
			s.deferred.appendFrom(b, qi, triIdx)
		}
	}
	hsrDone := max(rastClock, ezClock)

	// Pass 2: shade only quads whose samples own the final depth value.
	// shadedPix guards against double-shading when two fragments tie.
	if cap(s.shadedPix) < s.cfg.TileSize*s.cfg.TileSize {
		s.shadedPix = make([]bool, s.cfg.TileSize*s.cfg.TileSize)
	}
	shaded := s.shadedPix[:s.cfg.TileSize*s.cfg.TileSize]
	for i := range shaded {
		shaded[i] = false
	}
	tx0 := int(clip.Min.X)
	ty0 := int(clip.Min.Y)

	issue := hsrDone
	var shadedFrags uint64
	for di, n := 0, s.deferred.Len(); di < n; di++ {
		bt := &s.tris[s.deferred.tri[di]]
		qx := int(s.deferred.X[di])
		qy := int(s.deferred.Y[di])
		mask := s.deferred.Mask[di]
		depth := s.deferred.Depth[di*4 : di*4+4]
		var visible uint8
		for smp := 0; smp < 4; smp++ {
			if mask&(1<<smp) == 0 {
				continue
			}
			x := qx + (smp & 1)
			y := qy + (smp >> 1)
			// The buffer stores float32; compare at that precision.
			if float32(s.depth.At(x, y)) != float32(depth[smp]) {
				continue
			}
			pi := (y-ty0)*s.cfg.TileSize + (x - tx0)
			if pi < 0 || pi >= len(shaded) || shaded[pi] {
				continue
			}
			shaded[pi] = true
			visible |= 1 << smp
		}
		if visible == 0 {
			continue
		}
		alive := bits.OnesCount8(visible)
		shadedFrags += uint64(alive)
		issue++
		fpDone := s.shadeQuad(st, bt, s.deferred.U[di], s.deferred.V[di], issue, alive)
		cEnter := s.colorQ.Admit(fpDone)
		blendClock = max(blendClock+1, cEnter)
		s.colorQ.Commit(blendClock)
		st.BlendOps++
		if blendClock > tileDone {
			tileDone = blendClock
		}
	}
	// Pass 3: transparency — blended quads test against the final
	// opaque depth (read-only) and shade in submission order; multiple
	// transparent layers over a pixel all shade (they stack).
	for di, n := 0, s.transparent.Len(); di < n; di++ {
		bt := &s.tris[s.transparent.tri[di]]
		depth := s.transparent.Depth[di*4 : di*4+4]
		visible := s.depth.TestMaskReadOnly(int(s.transparent.X[di]), int(s.transparent.Y[di]), depth, s.transparent.Mask[di])
		if visible == 0 {
			continue
		}
		alive := bits.OnesCount8(visible)
		shadedFrags += uint64(alive)
		issue++
		fpDone := s.shadeQuad(st, bt, s.transparent.U[di], s.transparent.V[di], issue, alive)
		cEnter := s.colorQ.Admit(fpDone)
		blendClock = max(blendClock+1, cEnter)
		s.colorQ.Commit(blendClock)
		st.BlendOps++
		if blendClock > tileDone {
			tileDone = blendClock
		}
	}
	st.FragmentsOccluded += covered - shadedFrags

	s.noteFPEnd(st.FragmentsShaded - shaded0)
	for _, v := range s.fpFree {
		tileDone = max(tileDone, v)
	}
	return max(tileDone, max(hsrDone, blendClock))
}

// shadeQuad dispatches one surviving quad to the least-loaded fragment
// processor, charging ALU time and the texture-fetch chain, and returns
// the completion cycle. u, v are the quad-center texture coordinates;
// alive is the quad's covered-fragment count.
func (s *Simulator) shadeQuad(st *FrameStats, bt *boundTri, u, v float64, ready uint64, alive int) uint64 {
	tab := &s.fsTab[bt.fs]
	st.FragmentsShaded += uint64(alive)
	// Each live fragment executes the program on its own SIMD lane; the
	// quad occupies the processor for Instructions cycles regardless of
	// coverage.
	st.FSInstrs += uint64(alive) * tab.instrs

	enter := s.fragmentQ.Admit(ready)
	// Least-loaded dispatch: argmin with lowest-index tie-break, the
	// min carried in a register so the scan has no serial memory
	// dependence through fpi.
	fp := s.fpFree
	var fpi int
	var minFree uint64
	if len(fp) == 8 {
		// Pairwise tournament for the common 8-FP configuration: four
		// independent leaf compares, then two, then one — dependence
		// depth 3 instead of a 7-deep serial chain. Strict < keeps the
		// left (lower-index) side on ties at every level, so the
		// lowest-index tie-break is preserved exactly.
		_ = fp[7]
		i0, m0 := 0, fp[0]
		if fp[1] < m0 {
			i0, m0 = 1, fp[1]
		}
		i1, m1 := 2, fp[2]
		if fp[3] < m1 {
			i1, m1 = 3, fp[3]
		}
		i2, m2 := 4, fp[4]
		if fp[5] < m2 {
			i2, m2 = 5, fp[5]
		}
		i3, m3 := 6, fp[6]
		if fp[7] < m3 {
			i3, m3 = 7, fp[7]
		}
		if m1 < m0 {
			i0, m0 = i1, m1
		}
		if m3 < m2 {
			i2, m2 = i3, m3
		}
		fpi, minFree = i0, m0
		if m2 < m0 {
			fpi, minFree = i2, m2
		}
	} else {
		minFree = fp[0]
		for i := 1; i < len(fp); i++ {
			if v := fp[i]; v < minFree {
				minFree = v
				fpi = i
			}
		}
	}
	fpStart := max(enter, minFree)

	// Texture fetches: taps coalesce to distinct cache lines within the
	// quad's footprint.
	texDone := fpStart
	if len(tab.tex) > 0 {
		texDone = s.textureChain(fpStart, bt.tex, tab.tex, u, v, st)
	}
	aluDone := fpStart + tab.instrs
	fpDone := max(aluDone, texDone)
	st.FPBusyCycles += fpDone - fpStart
	fp[fpi] = fpDone
	s.fragmentQ.Commit(fpDone)
	return fpDone
}

// noteFPEnd records the completion of a tile's last shaded quad. Called
// once per tile (shaded counts quads issued there): every fpFree entry
// is either the tile-start clock or some quad's completion, so when the
// tile shaded at least one quad, max(fpFree) is the latest completion.
func (s *Simulator) noteFPEnd(shaded uint64) {
	if shaded == 0 {
		return
	}
	end := uint64(0)
	for _, v := range s.fpFree {
		if v > end {
			end = v
		}
	}
	if end > s.frameFPEnd {
		s.frameFPEnd = end
	}
}

// texelAddr returns the address of texel (x, y) of a w x h texture at
// base, clamping overshooting coordinates to the edge (UV wrapping
// guarantees they are never negative).
func texelAddr(base uint64, x, y, w, h, bytesPerTexel int) uint64 {
	if x >= w {
		x = w - 1
	}
	if y >= h {
		y = h - 1
	}
	return base + uint64((y*w+x)*bytesPerTexel)
}

// addLine appends line index ln to lines[:n] unless already present,
// returning the new count. The 3-entry set is the per-fetch cache-line
// footprint (at most 3 taps per filter).
func addLine(lines *[3]uint64, n int, ln uint64) int {
	for i := 0; i < n; i++ {
		if lines[i] == ln {
			return n
		}
	}
	if n < len(lines) {
		lines[n] = ln
		n++
	}
	return n
}

// textureChain issues the texture accesses of one shaded quad and
// returns the completion cycle. Filter taps that fall on the same cache
// line coalesce (quad-level texture locality), but the logical
// filter-weighted access count is recorded in the statistics. The quad's
// deduplicated line set is probed in one batched AccessChain call per
// fetch; per-fetch constants (cache unit, UV offsets, tap counts) come
// precomputed from the shader's cost table.
func (s *Simulator) textureChain(start uint64, tex int32, fetches []texFetch, qu, qv float64, st *FrameStats) uint64 {
	m := &s.texMemo
	if !m.ok || m.tex != tex {
		texture := &s.trace.Textures[tex]
		m.ok = true
		m.tex = tex
		m.base = s.texBase[tex]
		m.mip = m.base + uint64(texture.SizeBytes())
		m.w, m.h = texture.Width, texture.Height
		m.fw, m.fh = float64(m.w), float64(m.h)
		m.bpt = texture.BytesPerTexel
	}
	base := m.base
	w, h := m.w, m.h
	fw, fh := m.fw, m.fh
	bpt := m.bpt
	shift := s.texLineShift
	cur := start
	for fi := range fetches {
		f := &fetches[fi]
		st.TexAccesses += f.taps
		cache := s.tcaches[f.unit]

		// Wrap UVs and locate the base texel. Different samplers
		// perturb coordinates so multi-layer materials touch
		// different texture regions.
		u := qu + f.du
		v := qv + f.dv
		u -= math.Floor(u)
		v -= math.Floor(v)
		tx := int(u * fw)
		tyy := int(v * fh)
		if tx >= w {
			tx = w - 1
		}
		if tyy >= h {
			tyy = h - 1
		}

		var lines [3]uint64
		n := addLine(&lines, 0, texelAddr(base, tx, tyy, w, h, bpt)>>shift)
		switch f.filter {
		case shader.FilterLinear:
			n = addLine(&lines, n, texelAddr(base, tx+1, tyy, w, h, bpt)>>shift)
		case shader.FilterBilinear:
			n = addLine(&lines, n, texelAddr(base, tx+1, tyy, w, h, bpt)>>shift)
			n = addLine(&lines, n, texelAddr(base, tx, tyy+1, w, h, bpt)>>shift)
		case shader.FilterTrilinear:
			n = addLine(&lines, n, texelAddr(base, tx+1, tyy, w, h, bpt)>>shift)
			// Second mip level lives past the base image.
			n = addLine(&lines, n, (m.mip+uint64(((tyy/2)*(w/2)+tx/2)*bpt))>>shift)
		}
		for i := 0; i < n; i++ {
			lines[i] <<= shift
		}
		cur = cache.AccessChain(cur, lines[:n], false)
	}
	return cur
}
