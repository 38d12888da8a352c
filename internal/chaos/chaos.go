// Package chaos is deterministic, seed-keyed network fault injection
// for the cluster fabric: an http.RoundTripper that perturbs the
// coordinator's view of its worker fleet — dropped, delayed, duplicated
// and stalled deliveries, truncated and bit-corrupted response bodies,
// partial partitions that cut one worker off for a window of requests —
// without ever touching the simulation itself.
//
// Every fault decision is a pure function of (Seed, request key,
// attempt, fault class), mirroring the tile-level discipline of
// tbr.FaultConfig one layer up: tbr keys its rolls on (seed, frame,
// tile, class) so an injected microarchitectural fault pattern is
// independent of scheduling, and chaos keys its rolls on (seed,
// fingerprint#frame@worker, attempt, class) so an injected network
// fault pattern is independent of goroutine interleaving. Two runs of
// the same request plan under the same seed inject the identical fault
// sequence — a failing chaos soak replays.
//
// The package knows the fabric's frame-dispatch shape (a POST whose
// body carries the campaign fingerprint and frame index) only to build
// stable keys; it works as a generic chaotic transport for any client.
package chaos

import (
	"fmt"
	"hash/fnv"
	"time"
)

// faultClass is one fault family. Each class draws an independent
// deterministic roll stream, so enabling one fault never shifts
// another's pattern (the same property tbr.FaultConfig keeps per tile).
type faultClass int

const (
	// classDrop drops the request before it is sent: the worker never
	// sees it and the client gets a transport error — a lost packet.
	classDrop faultClass = iota
	// classDelay holds the request for Config.Delay before sending —
	// ordinary network jitter, short next to any client timeout.
	classDelay
	// classDuplicate delivers the request twice and returns the second
	// response — a retransmitted POST reaching an at-least-once worker.
	classDuplicate
	// classTruncate cuts the response body short — a connection torn
	// down mid-transfer.
	classTruncate
	// classCorrupt flips one bit of the response body — wire or memory
	// corruption that checksums exist to catch.
	classCorrupt
	// classStall holds the request for Config.StallDelay — a straggler
	// worker that answers late but inside the client timeout.
	classStall
	// classPartition makes a worker unreachable for a whole window of
	// consecutive requests — a partial network partition: some peers
	// cut off while the rest of the fleet stays healthy.
	classPartition

	numClasses
)

// String names the class the way the event log spells it.
func (c faultClass) String() string {
	switch c {
	case classDrop:
		return "drop"
	case classDelay:
		return "delay"
	case classDuplicate:
		return "duplicate"
	case classTruncate:
		return "truncate"
	case classCorrupt:
		return "corrupt"
	case classStall:
		return "stall"
	case classPartition:
		return "partition"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// defaultPartitionWindow is how many consecutive requests to one host
// a single partition roll covers when Config leaves it zero.
const defaultPartitionWindow = 4

// Config configures the chaos transport. The zero value injects
// nothing. Rates are per-request probabilities in [0, 1]; all rolls
// derive from Seed, so a config is a complete, replayable description
// of a chaos run.
type Config struct {
	// Seed drives every fault roll. Same seed + same request plan =
	// byte-identical fault sequence.
	Seed uint64

	// DropRate drops requests before they reach the worker.
	DropRate float64

	// DelayRate delays requests by Delay before sending (Delay <= 0
	// disables the class even when the rate is set).
	DelayRate float64
	Delay     time.Duration

	// DuplicateRate delivers the request twice; the caller sees the
	// second response.
	DuplicateRate float64

	// TruncateRate truncates response bodies at a deterministic cut
	// point strictly inside the body.
	TruncateRate float64

	// CorruptRate flips one deterministic bit of the response body.
	CorruptRate float64

	// StallRate stalls requests for StallDelay before sending — the
	// straggler fault (StallDelay <= 0 disables the class).
	StallRate  float64
	StallDelay time.Duration

	// PartitionRate cuts a host off for PartitionWindow consecutive
	// requests at a time: the roll is keyed on the host and the window
	// index, so a rolled window fails every request in it.
	PartitionRate   float64
	PartitionWindow int
}

// validate reports configuration errors.
func (c *Config) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DropRate", c.DropRate},
		{"DelayRate", c.DelayRate},
		{"DuplicateRate", c.DuplicateRate},
		{"TruncateRate", c.TruncateRate},
		{"CorruptRate", c.CorruptRate},
		{"StallRate", c.StallRate},
		{"PartitionRate", c.PartitionRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("chaos: %s %v out of [0,1]", r.name, r.v)
		}
	}
	if c.PartitionWindow < 0 {
		return fmt.Errorf("chaos: PartitionWindow %d must be >= 0", c.PartitionWindow)
	}
	return nil
}

func (c *Config) partitionWindow() int {
	if c.PartitionWindow <= 0 {
		return defaultPartitionWindow
	}
	return c.PartitionWindow
}

// StagingProfile is the moderate default the megsimd -chaos-seed flag
// arms: every fault class on at a rate a healthy fleet absorbs through
// failover and digest verification. Staging clusters run under
// it to prove the trust layer earns its keep before production traffic
// does the proving.
func StagingProfile(seed uint64) Config {
	return Config{
		Seed:          seed,
		DropRate:      0.05,
		DelayRate:     0.05,
		Delay:         5 * time.Millisecond,
		DuplicateRate: 0.03,
		TruncateRate:  0.02,
		CorruptRate:   0.02,
		StallRate:     0.02,
		StallDelay:    250 * time.Millisecond,
		PartitionRate: 0.02,
	}
}

// roll returns the deterministic fault roll in [0, 1) for (seed, key,
// attempt, class): FNV-1a over the key mixed with the attempt and class
// through a splitmix64 finalizer — the same construction as
// tbr.FaultConfig.roll, with the string key hashed first. Pure
// function; exported so tests (and operators replaying an incident) can
// predict a chaos run without an HTTP stack.
func roll(seed uint64, key string, attempt int, class faultClass) float64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := seed ^ h.Sum64() ^
		uint64(attempt)*0x9E3779B97F4A7C15 ^
		(uint64(class)+1)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// decision is the full set of faults one request attempt draws.
type decision struct {
	// Key is the request's chaos identity (see Key).
	Key string
	// Attempt is the 1-based occurrence count of Key.
	Attempt int

	Drop        bool
	Delay       bool
	Duplicate   bool
	Truncate    bool
	Corrupt     bool
	Stall       bool
	Partitioned bool
}

// decide draws every fault class for one attempt of one request — a
// pure function of the config, the request key, the per-key attempt
// number, and (for partitions) the host's request sequence number.
func (c *Config) decide(key, host string, attempt, hostSeq int) decision {
	d := decision{Key: key, Attempt: attempt}
	if c.PartitionRate > 0 {
		window := hostSeq / c.partitionWindow()
		d.Partitioned = roll(c.Seed, "host|"+host, window, classPartition) < c.PartitionRate
	}
	d.Drop = c.DropRate > 0 && roll(c.Seed, key, attempt, classDrop) < c.DropRate
	d.Delay = c.DelayRate > 0 && c.Delay > 0 && roll(c.Seed, key, attempt, classDelay) < c.DelayRate
	d.Duplicate = c.DuplicateRate > 0 && roll(c.Seed, key, attempt, classDuplicate) < c.DuplicateRate
	d.Truncate = c.TruncateRate > 0 && roll(c.Seed, key, attempt, classTruncate) < c.TruncateRate
	d.Corrupt = c.CorruptRate > 0 && roll(c.Seed, key, attempt, classCorrupt) < c.CorruptRate
	d.Stall = c.StallRate > 0 && c.StallDelay > 0 && roll(c.Seed, key, attempt, classStall) < c.StallRate
	return d
}
