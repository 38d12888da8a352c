package check

import (
	"context"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/tbr"
	"repro/internal/tbr/mem"
)

// validStats returns frame statistics satisfying every invariant under
// tbr.DefaultConfig (4 VPs, 4 FPs).
func validStats() tbr.FrameStats {
	return tbr.FrameStats{
		Frame:             3,
		Cycles:            100,
		GeometryCycles:    40,
		RasterCycles:      60,
		QuadsRasterized:   10,
		FragmentsShaded:   25,
		FragmentsOccluded: 5,
		VPBusyCycles:      120, // <= 4 processors x 100 cycles
		FPBusyCycles:      200,
		VertexCache:       mem.CacheStats{Accesses: 10, Hits: 8, Misses: 2, Writebacks: 1},
		TextureCache:      mem.CacheStats{Accesses: 20, Hits: 15, Misses: 5},
		TileCache:         mem.CacheStats{Accesses: 12, Hits: 10, Misses: 2, Writebacks: 2},
		L2:                mem.CacheStats{Accesses: 9, Hits: 4, Misses: 5, Writebacks: 1},
		DRAM:              mem.DRAMStats{Accesses: 6, Reads: 4, Writes: 2, RowHits: 1, RowMisses: 5},
	}
}

func TestInvariantsCleanFrame(t *testing.T) {
	iv := NewInvariants(tbr.DefaultConfig())
	st := validStats()
	if err := iv.CheckFrame(&st); err != nil {
		t.Fatalf("CheckFrame on valid stats: %v", err)
	}
	if v := iv.Violations(); len(v) != 0 {
		t.Fatalf("valid stats produced violations: %v", v)
	}
	if iv.Frames() != 1 {
		t.Fatalf("Frames() = %d, want 1", iv.Frames())
	}
}

// TestInvariantRules corrupts one field per rule and asserts exactly
// that rule fires — the "checks actually detect what they claim to"
// half of the validation story.
func TestInvariantRules(t *testing.T) {
	cases := []struct {
		rule    string
		corrupt func(st *tbr.FrameStats)
	}{
		{"cache-access-conservation", func(st *tbr.FrameStats) { st.L2.Accesses += 7 }},
		{"cache-access-conservation", func(st *tbr.FrameStats) { st.VertexCache.Hits++ }},
		{"cache-writeback-bound", func(st *tbr.FrameStats) {
			st.TileCache.Writebacks = st.TileCache.Accesses + 1
		}},
		{"dram-access-conservation", func(st *tbr.FrameStats) { st.DRAM.Reads++ }},
		{"dram-row-conservation", func(st *tbr.FrameStats) { st.DRAM.RowHits++ }},
		{"cycle-accounting", func(st *tbr.FrameStats) { st.GeometryCycles++ }},
		{"vp-occupancy", func(st *tbr.FrameStats) { st.VPBusyCycles = 4*st.Cycles + 1 }},
		{"fp-occupancy", func(st *tbr.FrameStats) { st.FPBusyCycles = 4*st.Cycles + 1 }},
		{"fragment-conservation", func(st *tbr.FrameStats) {
			st.FragmentsShaded = 4*st.QuadsRasterized + 1
			st.FragmentsOccluded = 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			iv := NewInvariants(tbr.DefaultConfig())
			st := validStats()
			tc.corrupt(&st)
			if err := iv.CheckFrame(&st); err != nil {
				t.Fatalf("record mode returned error: %v", err)
			}
			vs := iv.Violations()
			if len(vs) == 0 {
				t.Fatalf("corruption did not fire %s", tc.rule)
			}
			found := false
			for _, v := range vs {
				if v.Rule == tc.rule {
					found = true
					if v.Frame != st.Frame {
						t.Errorf("violation frame = %d, want %d", v.Frame, st.Frame)
					}
				}
			}
			if !found {
				t.Fatalf("expected rule %s, got %v", tc.rule, vs)
			}
		})
	}
}

func TestInvariantEnergyRules(t *testing.T) {
	// A model with a negative event energy drives frame energy below
	// zero: both the per-frame sign check and the cumulative
	// monotonicity check must fire.
	m := power.DefaultEnergyModel()
	m.FSInstr = -1e9
	iv := NewInvariants(tbr.DefaultConfig()).WithEnergyModel(m)
	st := validStats()
	st.FSInstrs = 1000
	if err := iv.CheckFrame(&st); err != nil {
		t.Fatalf("record mode returned error: %v", err)
	}
	rules := map[string]bool{}
	for _, v := range iv.Violations() {
		rules[v.Rule] = true
	}
	if !rules["energy-non-negative"] {
		t.Errorf("negative frame energy did not fire energy-non-negative: %v", iv.Violations())
	}
	if !rules["energy-monotonic"] {
		t.Errorf("negative frame energy did not fire energy-monotonic: %v", iv.Violations())
	}
}

func TestInvariantsStrictMode(t *testing.T) {
	iv := NewInvariants(tbr.DefaultConfig()).Strict()
	st := validStats()
	st.DRAM.Reads++ // breaks dram-access-conservation
	err := iv.CheckFrame(&st)
	if err == nil {
		t.Fatal("strict mode did not return an error on violation")
	}
	if !strings.Contains(err.Error(), "dram-access-conservation") {
		t.Errorf("error %q does not name the violated rule", err)
	}

	// Clean frames pass even in strict mode.
	st2 := validStats()
	if err := iv.CheckFrame(&st2); err != nil {
		t.Fatalf("strict mode rejected valid stats: %v", err)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Frame: 7, Rule: "cycle-accounting", Detail: "x"}
	s := v.String()
	for _, want := range []string{"7", "cycle-accounting", "x"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// TestCheckerWiredIntoSimulator runs a real simulation with the checker
// attached and asserts it sees every frame without violations — the
// non-firing half of the acceptance criterion, over all three raster
// modes.
func TestCheckerWiredIntoSimulator(t *testing.T) {
	tr := smallTrace(t, 5)
	for _, tw := range []int{0, 1, 2} {
		cfg := tbr.DefaultConfig()
		cfg.TileWorkers = tw
		iv := NewInvariants(cfg).Strict()
		cfg.Check = iv
		stats, err := tbr.SimulateFrames(context.Background(), cfg, tr, nil, 2)
		if err != nil {
			t.Fatalf("TileWorkers=%d: %v", tw, err)
		}
		if len(stats) != tr.NumFrames() {
			t.Fatalf("TileWorkers=%d: simulated %d frames, want %d", tw, len(stats), tr.NumFrames())
		}
		if iv.Frames() != tr.NumFrames() {
			t.Errorf("TileWorkers=%d: checker saw %d frames, want %d", tw, iv.Frames(), tr.NumFrames())
		}
		if v := iv.Violations(); len(v) != 0 {
			t.Errorf("TileWorkers=%d: clean simulation violated invariants: %v", tw, v)
		}
	}
}

// TestCorruptStatsTripsChecker injects the statistics-corruption fault
// and asserts the invariant layer catches it — the firing half of the
// acceptance criterion, through the real simulator rather than
// fabricated stats.
func TestCorruptStatsTripsChecker(t *testing.T) {
	tr := smallTrace(t, 3)
	cfg := tbr.DefaultConfig()
	cfg.Faults = tbr.FaultConfig{CorruptStats: true}
	iv := NewInvariants(cfg)
	cfg.Check = iv
	if _, err := tbr.SimulateFrames(context.Background(), cfg, tr, nil, 1); err != nil {
		t.Fatalf("record-mode run errored: %v", err)
	}
	vs := iv.Violations()
	if len(vs) == 0 {
		t.Fatal("CorruptStats fault did not trip any invariant")
	}
	for _, v := range vs {
		if v.Rule != "cache-access-conservation" {
			t.Errorf("unexpected rule %s (want cache-access-conservation): %s", v.Rule, v)
		}
	}

	// In strict mode the same corruption aborts the run with an error
	// (SimulateFrames converts the checker panic back).
	cfg2 := cfg
	cfg2.Check = NewInvariants(cfg2).Strict()
	if _, err := tbr.SimulateFrames(context.Background(), cfg2, tr, nil, 1); err == nil {
		t.Fatal("strict checker did not abort the corrupted run")
	}
}
