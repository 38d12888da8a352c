package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/xmath/stats"
)

// flatMem is a constant-latency bottom level for cache tests.
type flatMem struct {
	latency  uint64
	accesses uint64
	writes   uint64
}

func (f *flatMem) Access(now uint64, addr uint64, write bool) uint64 {
	f.accesses++
	if write {
		f.writes++
	}
	return now + f.latency
}

func (f *flatMem) Name() string { return "flat" }

func newTestCache(size, line, ways int, next Level) *Cache {
	return NewCache(CacheConfig{
		Name: "test", SizeBytes: size, LineBytes: line, Ways: ways, Latency: 2,
	}, next)
}

func TestCacheHitAfterMiss(t *testing.T) {
	next := &flatMem{latency: 100}
	c := newTestCache(1024, 64, 2, next)
	d1 := c.Access(0, 0x40, false)
	if d1 <= 2 {
		t.Fatalf("first access should miss: done=%d", d1)
	}
	d2 := c.Access(d1, 0x40, false)
	if d2 != d1+2 {
		t.Fatalf("second access should hit with latency 2: done=%d", d2)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 || c.Stats.Accesses != 2 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestCacheSameLineDifferentWords(t *testing.T) {
	next := &flatMem{latency: 100}
	c := newTestCache(1024, 64, 2, next)
	c.Access(0, 0x80, false)
	c.Access(0, 0xBF, false) // same 64B line
	if c.Stats.Hits != 1 {
		t.Fatalf("expected hit on same line, stats %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	next := &flatMem{latency: 10}
	// Direct-mapped-ish: 2 ways, 2 sets (256B, 64B lines).
	c := newTestCache(256, 64, 2, next)
	// Three lines mapping to set 0: line addresses 0, 2, 4 (set = line & 1).
	c.Access(0, 0*64, false)
	c.Access(0, 2*64, false)
	c.Access(0, 4*64, false) // evicts line 0 (LRU)
	c.Access(0, 2*64, false) // still resident
	if c.Stats.Hits != 1 {
		t.Fatalf("line 2 should have survived, stats %+v", c.Stats)
	}
	c.Access(0, 0*64, false) // was evicted: miss
	if c.Stats.Misses != 4 {
		t.Fatalf("line 0 should have been evicted, stats %+v", c.Stats)
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	next := &flatMem{latency: 10}
	c := newTestCache(256, 64, 2, next)
	c.Access(0, 0*64, true) // dirty line in set 0
	c.Access(0, 2*64, false)
	c.Access(0, 4*64, false) // evicts dirty line 0 -> writeback
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	if next.writes != 1 {
		t.Fatalf("next-level writes = %d, want 1", next.writes)
	}
}

func TestCacheCleanEvictionNoWriteback(t *testing.T) {
	next := &flatMem{latency: 10}
	c := newTestCache(256, 64, 2, next)
	c.Access(0, 0*64, false)
	c.Access(0, 2*64, false)
	c.Access(0, 4*64, false)
	if c.Stats.Writebacks != 0 || next.writes != 0 {
		t.Fatalf("clean eviction wrote back: %+v", c.Stats)
	}
}

func TestCacheFlush(t *testing.T) {
	next := &flatMem{latency: 10}
	c := newTestCache(1024, 64, 2, next)
	c.Access(0, 0x00, true)
	c.Access(0, 0x40, true)
	c.Access(0, 0x80, false)
	done := c.Flush(100)
	if c.Stats.Writebacks != 2 {
		t.Fatalf("flush writebacks = %d, want 2", c.Stats.Writebacks)
	}
	if done < 100 {
		t.Fatalf("flush done = %d", done)
	}
	// Everything must miss after the flush.
	c.Access(done, 0x00, false)
	if c.Stats.Hits != 0 {
		t.Fatalf("hit after flush, stats %+v", c.Stats)
	}
}

func TestCacheResetClearsStatsAndContents(t *testing.T) {
	next := &flatMem{latency: 10}
	c := newTestCache(1024, 64, 2, next)
	c.Access(0, 0x00, true)
	c.reset()
	if c.Stats != (CacheStats{}) {
		t.Fatalf("stats not cleared: %+v", c.Stats)
	}
	c.Access(0, 0x00, false)
	if c.Stats.Misses != 1 {
		t.Fatal("contents not cleared by Reset")
	}
}

func TestCacheHitRate(t *testing.T) {
	s := CacheStats{Accesses: 10, Hits: 7}
	if s.HitRate() != 0.7 {
		t.Fatalf("HitRate = %v", s.HitRate())
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Fatal("empty HitRate should be 0")
	}
}

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{Name: "zero", SizeBytes: 0, LineBytes: 64, Ways: 2},
		{Name: "odd-sets", SizeBytes: 3 * 64 * 2, LineBytes: 64, Ways: 2},
		{Name: "odd-line", SizeBytes: 1024, LineBytes: 48, Ways: 2},
		{Name: "indivisible", SizeBytes: 1000, LineBytes: 64, Ways: 2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validated", cfg.Name)
		}
	}
	good := CacheConfig{Name: "l2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestCacheAddressReconstructionProperty(t *testing.T) {
	// Writing then evicting every address pattern must never write back
	// to a different line address than was written.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		rec := &recordingMem{}
		c := newTestCache(512, 64, 2, rec)
		written := map[uint64]bool{}
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(1 << 20))
			c.Access(0, addr, true)
			written[addr>>6] = true
		}
		c.Flush(0)
		for _, wb := range rec.writeLines {
			if !written[wb] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

type recordingMem struct {
	writeLines []uint64
}

func (r *recordingMem) Access(now uint64, addr uint64, write bool) uint64 {
	if write {
		r.writeLines = append(r.writeLines, addr>>6)
	}
	return now + 1
}

func (r *recordingMem) Name() string { return "recording" }

func TestDRAMRowHitFasterThanMiss(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	// Lines interleave across channels, so line 0 and line 2 both go to
	// channel 0 and share the 2 KiB row 0.
	first := d.Access(0, 0, false)        // row miss
	second := d.Access(first, 128, false) // same channel, same row: hit
	missLat := first - 0
	hitLat := second - first
	if hitLat >= missLat {
		t.Fatalf("row hit latency %d >= miss latency %d", hitLat, missLat)
	}
	if d.Stats.RowHits != 1 || d.Stats.RowMisses != 1 {
		t.Fatalf("stats %+v", d.Stats)
	}
}

func TestDRAMChannelContention(t *testing.T) {
	cfg := DefaultDRAMConfig()
	d := NewDRAM(cfg)
	transfer := uint64(cfg.LineBytes / cfg.BytesPerCycle)
	// Two accesses issued at cycle 0 to the same channel: the second
	// must queue behind the first transfer on the data bus.
	d.Access(0, 0, false)
	b := d.Access(0, 128, false) // line 2 -> channel 0 again, row 0 open
	unloaded := cfg.RowHitLatency + transfer
	if b != transfer+unloaded {
		t.Fatalf("second access done = %d, want bus wait %d + row-hit %d", b, transfer, unloaded)
	}
}

func TestDRAMChannelsIndependent(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	a := d.Access(0, 0, false)  // line 0 -> channel 0
	b := d.Access(0, 64, false) // line 1 -> channel 1
	// Channel 1 is idle; latency should be the plain row-miss latency.
	if b > a {
		t.Fatalf("independent channels interfered: %d vs %d", a, b)
	}
}

func TestDRAMStatsCounts(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	d.Access(0, 0, false)
	d.Access(0, 4096, true)
	if d.Stats.Accesses != 2 || d.Stats.Reads != 1 || d.Stats.Writes != 1 {
		t.Fatalf("stats %+v", d.Stats)
	}
}

func TestDRAMReset(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	d.Access(0, 0, false)
	d.Reset()
	if d.Stats.Accesses != 0 {
		t.Fatal("stats survived Reset")
	}
	// Row buffer must be closed again: first access misses.
	d.Access(0, 0, false)
	if d.Stats.RowMisses != 1 {
		t.Fatal("row state survived Reset")
	}
}

func TestHierarchyEndToEnd(t *testing.T) {
	// L1 -> L2 -> DRAM chain: an L1 miss that hits L2 must be much
	// cheaper than one that goes to DRAM.
	dram := NewDRAM(DefaultDRAMConfig())
	l2 := NewCache(CacheConfig{Name: "l2", SizeBytes: 4096, LineBytes: 64, Ways: 2, Latency: 18}, dram)
	l1 := NewCache(CacheConfig{Name: "l1", SizeBytes: 256, LineBytes: 64, Ways: 2, Latency: 2}, l2)

	coldDone := l1.Access(0, 0x1000, false) // L1 miss, L2 miss, DRAM
	if dram.Stats.Accesses != 1 {
		t.Fatalf("cold access did not reach DRAM: %+v", dram.Stats)
	}

	// Evict the line from tiny L1 but keep it in L2.
	l1.Access(coldDone, 0x1000+256, false)
	l1.Access(coldDone, 0x1000+512, false)
	before := dram.Stats.Accesses
	warmStart := coldDone + 1000
	warmDone := l1.Access(warmStart, 0x1000, false) // L1 miss, L2 hit
	if dram.Stats.Accesses != before {
		t.Fatalf("warm access reached DRAM: %d -> %d", before, dram.Stats.Accesses)
	}
	warmLat := warmDone - warmStart
	coldLat := coldDone
	if warmLat >= coldLat {
		t.Fatalf("L2 hit latency %d >= DRAM latency %d", warmLat, coldLat)
	}
}

func TestDRAMPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDRAM(DRAMConfig{})
}

func TestCachePanicsWithoutNextLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCache(CacheConfig{Name: "x", SizeBytes: 1024, LineBytes: 64, Ways: 2}, nil)
}
