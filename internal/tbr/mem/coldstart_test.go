package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// rasterHierarchy is the simulator's raster-side memory hierarchy built
// from this package's levels: a tile cache and texture caches over an
// L2 over a DRAM, with the Table I geometry.
type rasterHierarchy struct {
	dram *DRAM
	l2   *Cache
	tile *Cache
	tex  []*Cache
}

func newRasterHierarchy() *rasterHierarchy {
	h := &rasterHierarchy{dram: NewDRAM(DefaultDRAMConfig())}
	h.l2 = NewCache(CacheConfig{Name: "l2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 2, Latency: 18, Banks: 8}, h.dram)
	h.tile = NewCache(CacheConfig{Name: "tile", SizeBytes: 32 << 10, LineBytes: 64, Ways: 2, Latency: 2, Banks: 1}, h.l2)
	for i := 0; i < 4; i++ {
		h.tex = append(h.tex, NewCache(CacheConfig{Name: "texture", SizeBytes: 8 << 10, LineBytes: 64, Ways: 2, Latency: 2, Banks: 1}, h.l2))
	}
	return h
}

// hierarchyStats is a snapshot of every level's cumulative counters.
type hierarchyStats struct {
	Tile, L2 CacheStats
	Tex      []CacheStats
	DRAM     DRAMStats
}

func (h *rasterHierarchy) stats() hierarchyStats {
	st := hierarchyStats{Tile: h.tile.Stats, L2: h.l2.Stats, DRAM: h.dram.Stats}
	for _, c := range h.tex {
		st.Tex = append(st.Tex, c.Stats)
	}
	return st
}

// since returns the counters accumulated after the snapshot before.
func (s hierarchyStats) since(before hierarchyStats) hierarchyStats {
	sub := func(a, b CacheStats) CacheStats {
		return CacheStats{Accesses: a.Accesses - b.Accesses, Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Writebacks: a.Writebacks - b.Writebacks}
	}
	d := hierarchyStats{Tile: sub(s.Tile, before.Tile), L2: sub(s.L2, before.L2)}
	for i := range s.Tex {
		d.Tex = append(d.Tex, sub(s.Tex[i], before.Tex[i]))
	}
	d.DRAM = DRAMStats{
		Accesses:   s.DRAM.Accesses - before.DRAM.Accesses,
		Reads:      s.DRAM.Reads - before.DRAM.Reads,
		Writes:     s.DRAM.Writes - before.DRAM.Writes,
		RowHits:    s.DRAM.RowHits - before.DRAM.RowHits,
		RowMisses:  s.DRAM.RowMisses - before.DRAM.RowMisses,
		BusyCycles: s.DRAM.BusyCycles - before.DRAM.BusyCycles,
	}
	return d
}

// hierarchyAccess is one request of a synthetic access stream, addressed
// at one of the hierarchy's entry points.
type hierarchyAccess struct {
	unit  int // 0 = tile cache, 1..len(tex) = texture cache, last = L2 direct
	addr  uint64
	write bool
}

func randomStream(rng *rand.Rand, n, units int, addrBits uint, writeEvery int) []hierarchyAccess {
	s := make([]hierarchyAccess, n)
	for i := range s {
		s[i] = hierarchyAccess{unit: rng.Intn(units), addr: uint64(rng.Intn(1 << addrBits)), write: rng.Intn(writeEvery) == 0}
	}
	return s
}

// access feeds stream into the hierarchy from cycle 0 and returns the
// cycle the last request completes.
func (h *rasterHierarchy) access(stream []hierarchyAccess) uint64 {
	clock := uint64(0)
	for _, a := range stream {
		clock++
		switch {
		case a.unit == 0:
			clock = h.tile.Access(clock, a.addr, a.write)
		case a.unit <= len(h.tex):
			clock = h.tex[a.unit-1].Access(clock, a.addr, a.write)
		default:
			clock = h.l2.Access(clock, a.addr, a.write)
		}
	}
	return clock
}

// replay runs one isolated unit of work on the hierarchy — ColdStart,
// replay, Flush, the sequence the simulator runs for every frame under
// FlushCachesPerFrame — and returns the completion cycle.
func (h *rasterHierarchy) replay(stream []hierarchyAccess) uint64 {
	h.tile.ColdStart()
	for _, c := range h.tex {
		c.ColdStart()
	}
	h.l2.ColdStart()
	h.dram.ResetTime()
	clock := h.access(stream)
	done := h.tile.Flush(clock)
	for _, c := range h.tex {
		done = max(done, c.Flush(clock))
	}
	return max(done, h.l2.Flush(done))
}

// TestCacheColdStartIsolation: after ColdStart, a hierarchy's counters
// on a stream must not depend on earlier work — the frame-isolation
// property stated on ColdStart.
func TestCacheColdStartIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream := randomStream(rng, 500, 6, 16, 4)

	fresh := newRasterHierarchy()
	fresh.replay(stream)
	want := fresh.stats()

	warmed := newRasterHierarchy()
	// Unrelated prior work left resident and dirty (never flushed), then
	// the same stream: ColdStart must drop it without writebacks.
	prior := randomStream(rng, 300, 6, 18, 1)
	warmed.access(prior)
	before := warmed.stats()
	warmed.replay(stream)
	if got := warmed.stats().since(before); !reflect.DeepEqual(got, want) {
		t.Fatalf("ColdStart did not isolate the stream from prior work:\n%+v\nvs\n%+v", got, want)
	}
}

// TestCacheColdStartReuseTiming pins the arena-reuse contract at the
// timing level: ColdStart invalidates by bumping the line-liveness
// epoch rather than zeroing arrays, so the line arenas still hold stale
// tags, LRU stamps and dirty bits from the previous unit of work. A
// stream replayed on such a dirtied-then-ColdStarted hierarchy must
// nevertheless finish at exactly the clock a fresh one reports — if any
// stale line were still considered live (or a stale dirty bit triggered
// a writeback), the hit/miss pattern and therefore the final cycle
// would shift.
func TestCacheColdStartReuseTiming(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stream := randomStream(rng, 600, 6, 16, 4)
	want := newRasterHierarchy().replay(stream)

	reused := newRasterHierarchy()
	// Dirty every level and leave it resident: all-write traffic over
	// the same address range as the probe stream, so stale tags would
	// alias if resurrected.
	reused.access(randomStream(rng, 400, 6, 16, 1))
	if got := reused.replay(stream); got != want {
		t.Fatalf("dirtied-then-ColdStarted hierarchy finished at cycle %d, fresh one at %d", got, want)
	}
}

// TestCacheColdStartSequenceDoesNotAllocate pins the other half of the
// arena-reuse contract: the whole ColdStart, replay, Flush sequence runs
// without a single heap allocation once the caches are built, which the
// frame benchmarks' allocs/op budget depends on.
func TestCacheColdStartSequenceDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	stream := randomStream(rng, 200, 6, 15, 3)
	h := newRasterHierarchy()
	if allocs := testing.AllocsPerRun(20, func() { h.replay(stream) }); allocs != 0 {
		t.Fatalf("ColdStart/replay/Flush allocated %.1f times per run, want 0", allocs)
	}
}
