package tbr_test

import (
	"testing"

	"repro/internal/tbr"
	"repro/internal/workload"
)

func simulateAtFrequency(t *testing.T, freqMHz int, frames int) (tbr.FrameStats, tbr.Config) {
	t.Helper()
	tr := workload.MustGenerate(workload.Profiles["bbr1"], workload.TestScale)
	cfg := tbr.DefaultConfig()
	cfg.FrequencyMHz = freqMHz
	sim, err := tbr.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	var total tbr.FrameStats
	start := tr.NumFrames() / 2
	for f := start; f < start+frames; f++ {
		st := sim.SimulateFrame(f)
		total.Add(&st)
	}
	return total, cfg
}

func TestDVFSReferenceFrequencyUnchanged(t *testing.T) {
	// At the Table I frequency the DVFS scaling must be the identity.
	a, _ := simulateAtFrequency(t, 600, 3)
	tr := workload.MustGenerate(workload.Profiles["bbr1"], workload.TestScale)
	sim, err := tbr.New(tbr.DefaultConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	var b tbr.FrameStats
	start := tr.NumFrames() / 2
	for f := start; f < start+3; f++ {
		st := sim.SimulateFrame(f)
		b.Add(&st)
	}
	if a != b {
		t.Fatal("600 MHz result differs from default")
	}
}

func TestDVFSHigherClockMoreCyclesLessTime(t *testing.T) {
	slow, slowCfg := simulateAtFrequency(t, 300, 4)
	base, baseCfg := simulateAtFrequency(t, 600, 4)
	fast, fastCfg := simulateAtFrequency(t, 1200, 4)

	// More GPU cycles at higher clock (memory latency grows in cycles).
	if !(slow.Cycles < base.Cycles && base.Cycles < fast.Cycles) {
		t.Fatalf("cycles not monotone in frequency: %d / %d / %d",
			slow.Cycles, base.Cycles, fast.Cycles)
	}
	// But less wall-clock time (sublinear speedup: the DVFS story).
	ts := slowCfg.FrameSeconds(slow.Cycles)
	tb := baseCfg.FrameSeconds(base.Cycles)
	tf := fastCfg.FrameSeconds(fast.Cycles)
	if !(ts > tb && tb > tf) {
		t.Fatalf("wall time not monotone: %.4f / %.4f / %.4f s", ts, tb, tf)
	}
	// Speedup must be sublinear: 4x clock (300 -> 1200) buys < 4x time.
	if ts/tf >= 4 {
		t.Fatalf("speedup %.2fx not sublinear over a 4x clock range", ts/tf)
	}
	// The computed work is identical at every frequency.
	if slow.FragmentsShaded != fast.FragmentsShaded || slow.FSInstrs != fast.FSInstrs {
		t.Fatal("frequency changed computed work")
	}
	if slow.DRAM.Accesses != fast.DRAM.Accesses {
		t.Fatal("frequency changed DRAM access counts")
	}
}

func TestFrameSecondsZeroFrequency(t *testing.T) {
	var c tbr.Config
	if c.FrameSeconds(1000) != 0 {
		t.Fatal("zero frequency should give zero seconds")
	}
}

func TestDVFSExtremeClockStillMonotone(t *testing.T) {
	// 4800 MHz is an 8x clock: bytes/GPU-cycle drops below 1 and the
	// residual-transfer path engages. Cycles must keep growing.
	base, _ := simulateAtFrequency(t, 1200, 2)
	extreme, _ := simulateAtFrequency(t, 4800, 2)
	if extreme.Cycles <= base.Cycles {
		t.Fatalf("8x clock did not increase cycle count: %d vs %d", extreme.Cycles, base.Cycles)
	}
}
