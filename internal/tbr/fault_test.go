package tbr

import (
	"context"
	"testing"

	"repro/internal/gltrace"
	"repro/internal/workload"
)

func faultTestTrace(t testing.TB) *gltrace.Trace {
	t.Helper()
	p := workload.RandomProfile(0xFA)
	p.Frames = 6
	tr, err := workload.Generate(p, workload.Scale{Width: 96, Height: 48, FrameDivisor: 1, DetailDivisor: 2})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return tr
}

func TestFaultConfigValidate(t *testing.T) {
	good := []FaultConfig{
		{},
		{Seed: 7, DropTileRate: 0.5, DuplicateTileRate: 1, CacheFlushRate: 0.1},
		{DRAMLatencyScale: 2.5},
		{StallRate: 0.2, StallCycles: 100},
	}
	for _, f := range good {
		if err := f.validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", f, err)
		}
	}
	bad := []FaultConfig{
		{DropTileRate: -0.1},
		{DropTileRate: 1.1},
		{DuplicateTileRate: 2},
		{CacheFlushRate: -1},
		{StallRate: 1.5},
		{DRAMLatencyScale: -1},
	}
	for _, f := range bad {
		if err := f.validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", f)
		}
	}
}

func TestFaultConfigEnabled(t *testing.T) {
	cases := []struct {
		f    FaultConfig
		want bool
	}{
		{FaultConfig{}, false},
		{FaultConfig{Seed: 99}, false},            // a seed alone injects nothing
		{FaultConfig{DRAMLatencyScale: 1}, false}, // scale 1 is identity
		{FaultConfig{DRAMLatencyScale: 2}, true},
		{FaultConfig{DropTileRate: 0.01}, true},
		{FaultConfig{DuplicateTileRate: 0.01}, true},
		{FaultConfig{CacheFlushRate: 0.01}, true},
		{FaultConfig{StallRate: 0.5, StallCycles: 1}, true},
		{FaultConfig{CorruptStats: true}, true},
	}
	for _, tc := range cases {
		if got := tc.f.Enabled(); got != tc.want {
			t.Errorf("Enabled(%+v) = %v, want %v", tc.f, got, tc.want)
		}
	}
}

func TestFaultRollDeterministicAndSeedSensitive(t *testing.T) {
	a := FaultConfig{Seed: 1}
	b := FaultConfig{Seed: 2}
	diff := 0
	for frame := 0; frame < 4; frame++ {
		for tile := 0; tile < 16; tile++ {
			for class := uint64(0); class < 4; class++ {
				ra := a.roll(frame, tile, class)
				if ra != a.roll(frame, tile, class) {
					t.Fatalf("roll not deterministic at (%d,%d,%d)", frame, tile, class)
				}
				if ra < 0 || ra >= 1 {
					t.Fatalf("roll out of [0,1): %v", ra)
				}
				if ra != b.roll(frame, tile, class) {
					diff++
				}
			}
		}
	}
	if diff < 200 { // 256 rolls total; nearly all must differ across seeds
		t.Errorf("only %d/256 rolls differ between seeds", diff)
	}
}

// TestFaultInjectionWorkerInvariant is the determinism contract of the
// fault layer: injection is keyed by (seed, frame, tile, class), never
// by execution order, so identical faults land regardless of how
// frames are spread over workers.
func TestFaultInjectionWorkerInvariant(t *testing.T) {
	tr := faultTestTrace(t)
	base := DefaultConfig()
	base.Faults = FaultConfig{
		Seed:              42,
		DropTileRate:      0.2,
		DuplicateTileRate: 0.15,
		CacheFlushRate:    0.2,
		StallRate:         0.3,
		StallCycles:       777,
		DRAMLatencyScale:  1.5,
	}

	var ref []FrameStats
	for _, frameWorkers := range []int{1, 2, 3, 4} {
		got, err := SimulateFrames(context.Background(), base, tr, nil, frameWorkers)
		if err != nil {
			t.Fatalf("fw=%d: %v", frameWorkers, err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for f := range got {
			if got[f] != ref[f] {
				t.Errorf("fw=%d: frame %d stats differ under identical faults",
					frameWorkers, f)
			}
		}
	}
}

// TestFaultsPerturbResults asserts each fault class actually changes
// what the simulator measures relative to a clean run — faults that
// silently do nothing validate nothing.
func TestFaultsPerturbResults(t *testing.T) {
	tr := faultTestTrace(t)
	clean, err := SimulateFrames(context.Background(), DefaultConfig(), tr, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(stats []FrameStats) (cycles, tileAcc, l2Acc uint64) {
		for i := range stats {
			cycles += stats[i].Cycles
			tileAcc += stats[i].TileCache.Accesses
			l2Acc += stats[i].L2.Accesses
		}
		return
	}
	cc, ct, cl := sum(clean)

	cases := []struct {
		name   string
		faults FaultConfig
		moved  func(cycles, tileAcc, l2Acc uint64) bool
	}{
		{"dram-latency", FaultConfig{DRAMLatencyScale: 4},
			func(cy, _, _ uint64) bool { return cy > cc }},
		{"drop", FaultConfig{Seed: 5, DropTileRate: 0.5},
			func(_, ta, _ uint64) bool { return ta < ct }},
		{"duplicate", FaultConfig{Seed: 5, DuplicateTileRate: 0.5},
			func(_, ta, _ uint64) bool { return ta > ct }},
		{"flush", FaultConfig{Seed: 5, CacheFlushRate: 0.9},
			func(_, _, l2 uint64) bool { return l2 != cl }},
		{"stall", FaultConfig{Seed: 5, StallRate: 0.5, StallCycles: 5000},
			func(cy, _, _ uint64) bool { return cy > cc }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Faults = tc.faults
			got, err := SimulateFrames(context.Background(), cfg, tr, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			cy, ta, l2 := sum(got)
			if !tc.moved(cy, ta, l2) {
				t.Errorf("fault left metrics unmoved: clean (cy=%d ta=%d l2=%d) faulted (cy=%d ta=%d l2=%d)",
					cc, ct, cl, cy, ta, l2)
			}
		})
	}
}

// TestFaultsPreserveFrameIsolation: faults key off the frame index, so
// a frame simulated standalone still matches the same frame inside the
// faulted full run — the oracle's sampled pass depends on this.
func TestFaultsPreserveFrameIsolation(t *testing.T) {
	tr := faultTestTrace(t)
	cfg := DefaultConfig()
	cfg.Faults = FaultConfig{Seed: 9, DropTileRate: 0.3, StallRate: 0.3, StallCycles: 300}
	full, err := SimulateFrames(context.Background(), cfg, tr, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	pick := []int{1, tr.NumFrames() - 1}
	solo, err := SimulateFrames(context.Background(), cfg, tr, pick, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range pick {
		if solo[i] != full[f] {
			t.Errorf("frame %d standalone differs from the faulted full run", f)
		}
	}
}
