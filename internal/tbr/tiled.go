package tbr

import (
	"context"
	"fmt"

	"repro/internal/tbr/mem"
	"repro/internal/tbr/queue"
)

// tileWorker is one worker of the tile-parallel raster stage: a private
// memory shard plus a raster context wired to it. Workers never share
// mutable timing state, so tiles simulate concurrently without locks
// and the per-shard statistics accumulate without atomics.
type tileWorker struct {
	shard *mem.Shard
	ctx   rasterCtx
	// partial accumulates the worker's share of the frame's raster
	// counters; the timing fields stay zero and the partials merge into
	// the frame's FrameStats by plain summation.
	partial FrameStats
}

// initTileWorkers builds the TileWorkers shard contexts and the
// per-tile result slices. Called from New when cfg.TileWorkers > 0.
func (s *Simulator) initTileWorkers() {
	shardCfg := mem.ShardConfig{
		TileCache:        s.cfg.TileCache,
		TextureCache:     s.cfg.TextureCache,
		NumTextureCaches: s.cfg.NumTextureCaches,
		L2:               s.cfg.L2,
		DRAM:             s.cfg.Faults.perturbDRAM(scaleDRAMToGPUClock(s.cfg.DRAM, s.cfg.FrequencyMHz)),
	}
	for w := 0; w < s.cfg.TileWorkers; w++ {
		sh := mem.NewShard(shardCfg)
		tw := &tileWorker{shard: sh}
		tw.ctx = rasterCtx{
			sim:       s,
			tilecache: sh.TileCache,
			tcaches:   sh.TextureCaches,
			fbmem:     sh.L2,
			fragmentQ: queue.New("fragment", s.cfg.FragmentQueueEntries),
			colorQ:    queue.New("color", s.cfg.ColorQueueEntries),
			fpFree:    make([]uint64, s.cfg.NumFragmentProcessors),
		}
		if s.cfg.Check != nil {
			tw.ctx.fragmentQ.EnableInvariantCheck()
			tw.ctx.colorQ.EnableInvariantCheck()
		}
		s.tileWorkers = append(s.tileWorkers, tw)
	}
	nTiles := s.tilesX * s.tilesY
	s.tileDurs = make([]uint64, nTiles)
	s.tileFPEnds = make([]uint64, nTiles)
}

// runTileIsolated simulates tile t in isolation on this worker: the
// shard cold-starts and the queues rewind, so the tile's duration and
// counters are a pure function of its primitive list and the canonical
// start cycle — independent of which worker runs it and of whatever ran
// on this shard before. The tile's duration (including the shard flush
// that drains its framebuffer lines) and fragment-stage end go to the
// per-tile slices the frame-end fold consumes.
func (tw *tileWorker) runTileIsolated(s *Simulator, t int, start uint64) {
	tw.shard.ColdStart()
	tw.ctx.fragmentQ.ResetTime()
	tw.ctx.colorQ.ResetTime()
	tw.ctx.fpEnd = 0
	tx, ty := t%s.tilesX, t/s.tilesX
	tileDone := tw.ctx.runTile(&tw.partial, t, tx, ty, start)
	flushDone := tw.shard.Flush(tileDone)
	s.tileDurs[t] = max(flushDone, tileDone) - start
	if tw.ctx.fpEnd > start {
		s.tileFPEnds[t] = tw.ctx.fpEnd - start
	} else {
		s.tileFPEnds[t] = 0
	}
}

// rasterPassTiled is the tile-parallel Raster Pipeline driver. Every
// tile is simulated in isolation from the canonical start cycle (the
// geometry-pass end) on some worker's shard; at frame end the per-tile
// durations compose serially — tile t begins when tile t-1's writeback
// drains, exactly the serial model's schedule — and the per-shard
// counters fold into the simulator's own units in shard order. Both
// folds are sums over per-tile pure functions, so FrameStats and obs
// snapshots are byte-identical for every TileWorkers >= 1 and for any
// distribution of tiles over workers.
func (s *Simulator) rasterPassTiled(st *FrameStats, start uint64) uint64 {
	s.depth.Clear()
	nTiles := s.tilesX * s.tilesY
	workers := len(s.tileWorkers)
	if workers > nTiles {
		workers = nTiles
	}
	for _, tw := range s.tileWorkers {
		tw.shard.ResetStats()
		tw.ctx.fragmentQ.Reset()
		tw.ctx.colorQ.Reset()
		// Frame carries through to the per-tile fault rolls; the
		// frame-end fold (st.Add) ignores it.
		tw.partial = FrameStats{Frame: st.Frame}
	}

	if workers <= 1 {
		tw := s.tileWorkers[0]
		for t := 0; t < nTiles; t++ {
			tw.runTileIsolated(s, t, start)
		}
	} else {
		// Tile pools run inside one frame: cancellation is handled at
		// frame granularity by the drivers, so the pool itself runs
		// uncancellable.
		_, err := claimPool(context.Background(), workers, nTiles, func(w int) (func(int), error) {
			tw := s.tileWorkers[w]
			return func(t int) { tw.runTileIsolated(s, t, start) }, nil
		})
		if err != nil {
			// SimulateFrame has no error path; a tile worker can only
			// fail by panicking, so resurface the panic (the
			// frame-parallel driver's recover converts it back).
			panic(fmt.Sprintf("tbr: tile-parallel raster stage: %v", err))
		}
	}

	// Deterministic fold: serialize the per-tile windows.
	clock := start
	fpEnd := uint64(0)
	for t := 0; t < nTiles; t++ {
		if s.tileFPEnds[t] > 0 && clock+s.tileFPEnds[t] > fpEnd {
			fpEnd = clock + s.tileFPEnds[t]
		}
		clock += s.tileDurs[t]
	}
	if fpEnd > s.frameFPEnd {
		s.frameFPEnd = fpEnd
	}

	// Fold the per-shard counters into the simulator's own units (in
	// shard order) so the frame-delta accounting and the obs export in
	// SimulateFrame see them exactly as in the serial mode; the worker
	// queues' occupancy tallies go straight into the shared histograms.
	for _, tw := range s.tileWorkers {
		st.Add(&tw.partial)
		ss := tw.shard.Stats()
		s.tilecache.Stats.Add(ss.TileCache)
		// Per-unit attribution: each shard texture cache folds into the
		// simulator unit with the same index, so per-unit counters match
		// the serial mode (folding the sum into unit 0 would not).
		for i := range ss.TextureCacheUnits {
			s.tcaches[i].Stats.Add(ss.TextureCacheUnits[i])
		}
		s.l2.Stats.Add(ss.L2)
		s.dram.Stats.Add(ss.DRAM)
		s.fragmentQ.Stats.Add(tw.ctx.fragmentQ.Stats)
		s.colorQ.Stats.Add(tw.ctx.colorQ.Stats)
		tw.ctx.fragmentQ.RecordOccupancy()
		tw.ctx.colorQ.RecordOccupancy()
	}
	return clock
}
