package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/tbr"
)

// runValidate is the `experiments validate` subcommand: the
// differential oracle of internal/check over N randomized workload
// seeds, emitting the JSON accuracy report `make validate` gates CI on.
func runValidate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments validate", flag.ContinueOnError)
	var (
		seeds       = fs.String("seeds", "1,2,3", "comma-separated workload seeds")
		out         = fs.String("out", "", "write the JSON accuracy report to this file")
		frameDiv    = fs.Int("frame-div", 0, "override the oracle scale's frame divisor")
		workers     = fs.Int("workers", 0, "simulation worker goroutines (0 = all cores)")
		tileWorkers = fs.Int("tile-workers", 0, "tile-parallel raster workers per frame")
		tolScale    = fs.Float64("tol", 1, "scale factor on the default tolerance bands")
		quiet       = fs.Bool("quiet", false, "suppress progress logging")

		// Fault injection: perturb the simulated microarchitecture to
		// measure graceful degradation (see internal/check).
		faultDrop        = fs.Float64("fault-drop", 0, "per-tile drop probability")
		faultDup         = fs.Float64("fault-dup", 0, "per-tile duplicate probability")
		faultFlush       = fs.Float64("fault-flush", 0, "per-tile cache-flush probability")
		faultStallRate   = fs.Float64("fault-stall-rate", 0, "per-tile stall probability")
		faultStallCycles = fs.Uint64("fault-stall-cycles", 0, "stall length in cycles")
		faultDRAMScale   = fs.Float64("fault-dram-scale", 0, "DRAM latency scale (0 = off, 1 = identity)")
		faultCorrupt     = fs.Bool("fault-corrupt", false, "corrupt frame statistics (must trip the invariant layer)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := check.OracleConfig{
		Workers:   *workers,
		Tolerance: check.DefaultTolerance().Scaled(*tolScale),
		Faults: tbr.FaultConfig{
			DropTileRate:      *faultDrop,
			DuplicateTileRate: *faultDup,
			CacheFlushRate:    *faultFlush,
			StallRate:         *faultStallRate,
			StallCycles:       *faultStallCycles,
			DRAMLatencyScale:  *faultDRAMScale,
			CorruptStats:      *faultCorrupt,
		},
	}
	if *tileWorkers > 0 {
		cfg.GPU = tbr.DefaultConfig()
		cfg.GPU.TileWorkers = *tileWorkers
	}
	if *frameDiv > 0 {
		cfg.Scale = check.DefaultOracleScale
		cfg.Scale.FrameDivisor = *frameDiv
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	var err error
	if cfg.Seeds, err = parseSeeds(*seeds); err != nil {
		return err
	}

	rep, err := check.RunOracle(cfg)
	if err != nil {
		return err
	}

	for _, sr := range rep.Seeds {
		fmt.Fprintf(stdout, "seed %-4d %-14s %4d frames, %3d reps (%.0fx), isolation=%v invariance=%v violations=%d\n",
			sr.Seed, sr.Alias, sr.Frames, sr.Representatives, sr.Reduction,
			sr.RepIsolation, sr.WorkerInvariance, len(sr.Violations))
		for _, m := range sr.Metrics {
			verdict := "ok"
			if !m.Pass {
				verdict = "OUT OF BAND"
			}
			fmt.Fprintf(stdout, "  %-22s err %6.3f%% (band %4.1f%%) %s\n",
				m.Name, m.RelErr*100, m.Tolerance*100, verdict)
		}
	}

	if *out != "" {
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			return err
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}

	if !rep.Pass {
		return fmt.Errorf("validation gate failed: accuracy out of band or invariants violated")
	}
	fmt.Fprintf(stdout, "validation gate passed: %d seeds within tolerance\n", len(rep.Seeds))
	return nil
}

func parseSeeds(s string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", part, err)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds given")
	}
	return seeds, nil
}
