// Package mem models the memory hierarchy of the simulated TBR GPU: the
// set-associative first-level caches (vertex, texture, tile), the shared
// L2, and a banked LPDDR-style DRAM with open-row policy — the roles
// DRAMsim2 and the cache models play inside TEAPOT.
//
// The timing interface is transaction-level: Access(now, addr, write)
// returns the cycle at which the request completes, advancing internal
// busy state. All caches are write-back, write-allocate with true LRU
// replacement.
package mem

import (
	"fmt"
	"math/bits"
)

// Level is any component that can serve memory requests: a cache or the
// DRAM at the bottom of the hierarchy.
type Level interface {
	// Access performs a read or write of one item at addr starting no
	// earlier than cycle now, returning the completion cycle.
	Access(now uint64, addr uint64, write bool) uint64
	// Name identifies the level in stats dumps.
	Name() string
}

// CacheConfig sizes a cache. Sizes follow Table I of the paper.
type CacheConfig struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
	// Latency is the hit latency in cycles.
	Latency uint64
	// Banks is kept for configuration fidelity with Table I; bank
	// conflicts are not modeled (single-ported timing is subsumed by
	// the pipeline's one-access-per-cycle issue rate).
	Banks int
}

// Validate reports configuration errors.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("mem: cache %q has non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("mem: cache %q size %d not divisible by line*ways (%d*%d)",
			c.Name, c.SizeBytes, c.LineBytes, c.Ways)
	}
	lines := c.SizeBytes / c.LineBytes
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: cache %q would have %d sets (must be a power of two)", c.Name, sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: cache %q line size %d must be a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// CacheStats counts cache activity.
type CacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// HitRate returns hits/accesses, or 0 with no accesses.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// cacheLine is 24 bytes: validity, dirtiness and the installation epoch
// share one word (meta = epoch<<1 | dirty), so the hot hit check is two
// compares over a denser arena.
type cacheLine struct {
	tag uint64
	// lastUse implements true LRU via a monotonically increasing
	// access stamp.
	lastUse uint64
	// meta packs the invalidation epoch (bits 63..1) and the dirty flag
	// (bit 0). A line is live only when meta>>1 matches the cache's
	// epoch; the cache epoch starts at 1 so zero-value lines are dead.
	// Bumping the cache epoch invalidates every line in O(1) — the
	// operation ColdStart performs once per frame simulated in
	// isolation, where a full array wipe would dominate the simulation.
	meta uint64
}

// Cache is a set-associative, write-back, write-allocate cache.
//
// The line array is one flat arena (set-major, way-minor) allocated at
// construction and never reallocated: ColdStart, Flush and
// WritebackAll all operate in place (epoch bumps and bitset scans), so
// a cache reused across thousands of isolated frames performs zero
// allocations after NewCache.
type Cache struct {
	cfg       CacheConfig
	lines     []cacheLine // flat backing: index = set*ways + way
	ways      int
	setMask   uint64
	setShift  uint
	lineShift uint
	next      Level
	// nextCache/nextDRAM devirtualize the next-level call for the two
	// concrete types every shipped hierarchy is built from; at most one
	// is non-nil, and nextAccess falls back to the interface otherwise.
	nextCache *Cache
	nextDRAM  *DRAM
	stamp     uint64
	epoch     uint64
	// dirty is a bitset over line indices recording flush/writeback
	// candidates, so Flush and WritebackAll visit only candidate lines
	// (in ascending index order, batched 64 lines per word) instead of
	// sorting an append-log or scanning the whole array. Bits may be
	// stale (line since evicted or from an old epoch); consumers
	// re-check the line's dirty flag and epoch, and clear each word as
	// they pass it.
	dirty []uint64
	// dirtySum is a second-level bitset (one bit per dirty word), so a
	// drain over a mostly-clean cache — the per-tile flush of the tile
	// and texture caches — skips zero words without loading them.
	dirtySum []uint64
	Stats    CacheStats
}

// NewCache builds a cache over the given next level. It panics on an
// invalid configuration (configurations are static in this codebase).
func NewCache(cfg CacheConfig, next Level) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if next == nil {
		panic("mem: cache needs a next level")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	numSets := lines / cfg.Ways
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	setShift := uint(0)
	for 1<<setShift < numSets {
		setShift++
	}
	numDirtyWords := (lines + 63) / 64
	c := &Cache{
		cfg:       cfg,
		lines:     make([]cacheLine, lines),
		ways:      cfg.Ways,
		dirty:     make([]uint64, numDirtyWords),
		dirtySum:  make([]uint64, (numDirtyWords+63)/64),
		setMask:   uint64(numSets - 1),
		setShift:  setShift,
		lineShift: shift,
		next:      next,
		epoch:     1, // zero-value lines (meta 0) must read as dead
	}
	switch n := next.(type) {
	case *Cache:
		c.nextCache = n
	case *DRAM:
		c.nextDRAM = n
	}
	return c
}

// nextAccess forwards to the next level with a direct call when the
// concrete type is known. The dispatch branches live here so they can
// inline into the (already call-heavy) miss and drain paths instead of
// adding a frame to every forwarded access.
func (c *Cache) nextAccess(now uint64, addr uint64, write bool) uint64 {
	if d := c.nextDRAM; d != nil {
		return d.Access(now, addr, write)
	}
	if n := c.nextCache; n != nil {
		return n.Access(now, addr, write)
	}
	return c.next.Access(now, addr, write)
}

// Name implements Level.
func (c *Cache) Name() string { return c.cfg.Name }

// noteDirty records a flat line index as a flush/writeback candidate.
func (c *Cache) noteDirty(idx int) {
	w := idx >> 6
	c.dirty[w] |= 1 << (uint(idx) & 63)
	c.dirtySum[w>>6] |= 1 << (uint(w) & 63)
}

// drainDirty writes back every live dirty line in ascending line index
// order — the order the historical full-array scan visited lines in,
// which downstream timing (DRAM row-buffer state) depends on. The
// bitset is consumed word by word: 64 candidate lines are probed per
// word load, and stale bits (evicted lines, old epochs) are discarded
// by the same pass that would have re-checked them individually.
// Returns the completion time of the last writeback.
func (c *Cache) drainDirty(now uint64) uint64 {
	done := now
	epoch := c.epoch
	for si, sw := range c.dirtySum {
		if sw == 0 {
			continue
		}
		sbase := si << 6
		for sw != 0 {
			wi := sbase + bits.TrailingZeros64(sw)
			sw &= sw - 1
			w := c.dirty[wi]
			base := wi << 6
			for w != 0 {
				idx := base + bits.TrailingZeros64(w)
				w &= w - 1
				ln := &c.lines[idx]
				if ln.meta == epoch<<1|1 { // live and dirty
					c.Stats.Writebacks++
					setIdx := uint64(idx / c.ways)
					addr := (ln.tag*(c.setMask+1) + setIdx) << c.lineShift
					var d uint64
					if dr := c.nextDRAM; dr != nil {
						d = dr.Access(now, addr, true)
					} else {
						d = c.nextAccess(now, addr, true)
					}
					if d > done {
						done = d
					}
					ln.meta &^= 1
				}
			}
			c.dirty[wi] = 0
		}
		c.dirtySum[si] = 0
	}
	return done
}

// Flush invalidates every line, writing back dirty ones (counted in
// Stats.Writebacks and forwarded to the next level at time `now`).
// It returns the completion time of the last writeback.
func (c *Cache) Flush(now uint64) uint64 {
	done := c.drainDirty(now)
	c.epoch++
	return done
}

// WritebackAll writes every dirty line to the next level, clearing
// dirty bits but keeping the contents resident — the end-of-frame
// behaviour when caches stay warm across frames.
func (c *Cache) WritebackAll(now uint64) uint64 {
	return c.drainDirty(now)
}

// ColdStart invalidates every line without writebacks and rewinds the
// LRU clock while keeping the cumulative statistics — the state of a
// cache at the start of a frame simulated in isolation. O(1): the epoch
// bump invalidates lazily and nothing is reallocated, so a cache can be
// reused for every frame of a campaign without a single allocation.
func (c *Cache) ColdStart() {
	c.epoch++
	c.stamp = 0
}

// Access implements Level.
func (c *Cache) Access(now uint64, addr uint64, write bool) uint64 {
	c.Stats.Accesses++
	c.stamp++
	lineAddr := addr >> c.lineShift
	setIdx := lineAddr & c.setMask
	tag := lineAddr >> c.setShift
	base := int(setIdx) * c.ways
	epoch := c.epoch

	// Hit path: a line is live iff meta>>1 matches the current epoch.
	// Every shipped configuration is 2-way, so the common case is the
	// unrolled two-probe check (at most one way can hold a live copy of
	// a tag, so probe order does not affect the result).
	if c.ways == 2 {
		idx := base
		ln := &c.lines[idx]
		if ln.tag != tag || ln.meta>>1 != epoch {
			idx = base + 1
			ln = &c.lines[idx]
			if ln.tag != tag || ln.meta>>1 != epoch {
				return c.accessMiss(now, addr, write, setIdx, tag, base)
			}
		}
		c.Stats.Hits++
		ln.lastUse = c.stamp
		if write && ln.meta&1 == 0 {
			ln.meta |= 1
			c.noteDirty(idx)
		}
		return now + c.cfg.Latency
	}

	set := c.lines[base : base+c.ways]
	for wi := range set {
		ln := &set[wi]
		if ln.tag == tag && ln.meta>>1 == epoch {
			c.Stats.Hits++
			ln.lastUse = c.stamp
			if write && ln.meta&1 == 0 {
				ln.meta |= 1
				c.noteDirty(base + wi)
			}
			return now + c.cfg.Latency
		}
	}
	return c.accessMiss(now, addr, write, setIdx, tag, base)
}

// accessMiss handles the fill path of Access: victim selection (invalid
// first, else LRU), victim writeback, and the demand fill.
func (c *Cache) accessMiss(now uint64, addr uint64, write bool, setIdx, tag uint64, base int) uint64 {
	epoch := c.epoch
	set := c.lines[base : base+c.ways]
	c.Stats.Misses++
	victim := 0
	for wi := range set {
		if set[wi].meta>>1 != epoch {
			victim = wi
			break
		}
		if set[wi].lastUse < set[victim].lastUse {
			victim = wi
		}
	}
	ln := &set[victim]
	fillStart := now + c.cfg.Latency
	if ln.meta == epoch<<1|1 { // live and dirty
		// Write back the victim. The writeback proceeds in the
		// background; it occupies the next level but does not delay
		// the demand fill beyond the level's own queuing.
		c.Stats.Writebacks++
		victimAddr := (ln.tag*(c.setMask+1) + setIdx) << c.lineShift
		if dr := c.nextDRAM; dr != nil {
			dr.Access(now, victimAddr, true)
		} else {
			c.nextAccess(now, victimAddr, true)
		}
	}
	var done uint64
	if dr := c.nextDRAM; dr != nil {
		done = dr.Access(fillStart, addr, false)
	} else {
		done = c.nextAccess(fillStart, addr, false)
	}
	meta := epoch << 1
	if write {
		meta |= 1
	}
	*ln = cacheLine{tag: tag, lastUse: c.stamp, meta: meta}
	if write {
		c.noteDirty(base + victim)
	}
	return done
}

// AccessChain probes the address set addrs as a dependent chain of
// reads or writes: each access issues one cycle after the previous one
// completes (the pipeline's one-probe-per-cycle issue rate) and the
// completion cycle of the last access is returned. Equivalent to
// calling Access in a loop with cur = Access(cur+1, addr, write); the
// batched form lets a caller probe a quad's or tile's whole line set in
// one call.
// The 2-way hit path is unrolled inline with the cache geometry hoisted
// out of the loop: the texture units probe every quad's line set through
// here, so per-element call overhead is the dominant cost of a warm
// chain. Misses and exotic associativities fall back to Access/accessMiss
// with identical semantics.
func (c *Cache) AccessChain(now uint64, addrs []uint64, write bool) uint64 {
	cur := now
	if c.ways != 2 {
		for _, a := range addrs {
			cur = c.Access(cur+1, a, write)
		}
		return cur
	}
	lineShift, setMask, setShift := c.lineShift, c.setMask, c.setShift
	epoch := c.epoch
	latency := c.cfg.Latency
	for _, a := range addrs {
		c.Stats.Accesses++
		c.stamp++
		lineAddr := a >> lineShift
		setIdx := lineAddr & setMask
		tag := lineAddr >> setShift
		base := int(setIdx) * 2
		idx := base
		ln := &c.lines[idx]
		if ln.tag != tag || ln.meta>>1 != epoch {
			idx = base + 1
			ln = &c.lines[idx]
			if ln.tag != tag || ln.meta>>1 != epoch {
				cur = c.accessMiss(cur+1, a, write, setIdx, tag, base)
				continue
			}
		}
		c.Stats.Hits++
		ln.lastUse = c.stamp
		if write && ln.meta&1 == 0 {
			ln.meta |= 1
			c.noteDirty(idx)
		}
		cur = cur + 1 + latency
	}
	return cur
}

// DRAMConfig sizes the main memory model (Table I: dual-channel LPDDR3,
// 4 B/cycle, 50-100 cycle latency, 64 B lines, 8 banks).
type DRAMConfig struct {
	// Channels is the number of independent channels.
	Channels int
	// Banks per channel.
	Banks int
	// RowBytes is the open-row (page) size per bank.
	RowBytes int
	// RowHitLatency and RowMissLatency bound the access latency.
	RowHitLatency, RowMissLatency uint64
	// LineBytes is the transfer granularity.
	LineBytes int
	// BytesPerCycle is the per-channel bandwidth.
	BytesPerCycle int
}

// DefaultDRAMConfig matches Table I.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Channels:       2,
		Banks:          8,
		RowBytes:       2048,
		RowHitLatency:  50,
		RowMissLatency: 100,
		LineBytes:      64,
		BytesPerCycle:  4,
	}
}

// DRAMStats counts memory activity.
type DRAMStats struct {
	Accesses  uint64
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	// BusyCycles accumulates channel occupancy for bandwidth
	// utilization reporting.
	BusyCycles uint64
}

// DRAM is the open-row banked main memory model.
type DRAM struct {
	cfg DRAMConfig
	// openRow is the flat [channel*Banks + bank] currently open row
	// (+1; 0 = none).
	openRow []uint64
	// busyUntil[channel] is the data-bus availability time.
	busyUntil []uint64
	// transfer is the per-line bus occupancy, hoisted out of Access.
	transfer uint64
	// pow2 geometry fast path: when line size, row size, channel and
	// bank counts are all powers of two (every shipped configuration),
	// Access replaces its four divisions with shifts and masks. The
	// general division path remains for exotic configurations.
	pow2      bool
	lineShift uint
	rowShift  uint
	chanMask  int
	bankMask  int
	Stats     DRAMStats
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

func log2u(v int) uint {
	s := uint(0)
	for 1<<s < v {
		s++
	}
	return s
}

// NewDRAM builds the memory model. It panics on non-positive geometry.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if cfg.Channels <= 0 || cfg.Banks <= 0 || cfg.RowBytes <= 0 || cfg.LineBytes <= 0 || cfg.BytesPerCycle <= 0 {
		panic("mem: invalid DRAM configuration")
	}
	d := &DRAM{cfg: cfg}
	d.openRow = make([]uint64, cfg.Channels*cfg.Banks)
	d.busyUntil = make([]uint64, cfg.Channels)
	d.transfer = uint64(cfg.LineBytes / cfg.BytesPerCycle)
	if isPow2(cfg.LineBytes) && isPow2(cfg.RowBytes) && isPow2(cfg.Channels) && isPow2(cfg.Banks) {
		d.pow2 = true
		d.lineShift = log2u(cfg.LineBytes)
		d.rowShift = log2u(cfg.RowBytes)
		d.chanMask = cfg.Channels - 1
		d.bankMask = cfg.Banks - 1
	}
	return d
}

// Name implements Level.
func (d *DRAM) Name() string { return "dram" }

// Reset clears open rows, bus state and statistics.
func (d *DRAM) Reset() {
	for i := range d.openRow {
		d.openRow[i] = 0
	}
	for i := range d.busyUntil {
		d.busyUntil[i] = 0
	}
	d.Stats = DRAMStats{}
}

// ResetTime rewinds the bus-availability clocks and closes all rows but
// keeps statistics. Used at frame boundaries, where unit clocks restart
// from zero.
func (d *DRAM) ResetTime() {
	for i := range d.openRow {
		d.openRow[i] = 0
	}
	for i := range d.busyUntil {
		d.busyUntil[i] = 0
	}
}

// Access implements Level: one line transfer.
func (d *DRAM) Access(now uint64, addr uint64, write bool) uint64 {
	d.Stats.Accesses++
	if write {
		d.Stats.Writes++
	} else {
		d.Stats.Reads++
	}
	var (
		row     uint64
		channel int
		bank    int
	)
	if d.pow2 {
		channel = int(addr>>d.lineShift) & d.chanMask
		row = addr >> d.rowShift
		bank = int(row) & d.bankMask
	} else {
		line := addr / uint64(d.cfg.LineBytes)
		channel = int(line) % d.cfg.Channels
		row = addr / uint64(d.cfg.RowBytes)
		bank = int(row) % d.cfg.Banks
	}

	lat := d.cfg.RowHitLatency
	slot := &d.openRow[channel*d.cfg.Banks+bank]
	if *slot != row+1 {
		lat = d.cfg.RowMissLatency
		d.Stats.RowMisses++
		*slot = row + 1
	} else {
		d.Stats.RowHits++
	}

	start := now
	if d.busyUntil[channel] > start {
		start = d.busyUntil[channel]
	}
	done := start + lat + d.transfer
	d.busyUntil[channel] = start + d.transfer
	d.Stats.BusyCycles += d.transfer
	return done
}
