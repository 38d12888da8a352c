// Command gpusim runs the cycle-level TBR GPU simulator over a trace
// (from a file or generated on the fly) and prints the simulation
// statistics — the expensive baseline that MEGsim accelerates.
//
// SIGINT/SIGTERM cancel the run at the next frame boundary; the
// observability outputs are still flushed and, when -checkpoint is set,
// a final checkpoint is written so the run resumes with -resume and
// produces byte-identical statistics to an uninterrupted run. With
// -checkpoint the frame loop runs under the resilience supervisor:
// frames that fail are retried with capped backoff and quarantined when
// they keep failing, and the summary reports the loss loudly.
//
// Usage:
//
//	gpusim -trace bbr1.trace            # simulate a saved trace
//	gpusim -benchmark hcr               # generate + simulate
//	gpusim -benchmark hcr -frames 0:100 # a frame range only
//	gpusim -benchmark hcr -tile-workers 4
//	gpusim -benchmark hcr -checkpoint run.ckpt          # interrupt freely…
//	gpusim -benchmark hcr -checkpoint run.ckpt -resume  # …and pick up here
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/power"
	"repro/internal/report"
	"repro/megsim"
)

func main() {
	// SIGINT/SIGTERM cancel the run context: the frame loop stops at the
	// next boundary, the deferred obs flush and (when enabled) the final
	// checkpoint still happen, and the process exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpusim:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a single error return, so every exit
// path — including mid-run simulator failures and cancellation — goes
// through the same deferred observability flush instead of an os.Exit
// that would skip it.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpusim", flag.ContinueOnError)
	var (
		tracePath    = fs.String("trace", "", "trace file produced by tracegen")
		benchmark    = fs.String("benchmark", "", "generate this benchmark instead of loading a trace")
		frames       = fs.String("frames", "", "frame range lo:hi (default: all)")
		frameDiv     = fs.Int("frame-div", 1, "frame divisor when generating (needs -benchmark)")
		perFrame     = fs.Bool("per-frame", false, "print one line per frame")
		tbdr         = fs.Bool("tbdr", false, "simulate a TBDR GPU (hidden surface removal)")
		tileWorkers  = fs.Int("tile-workers", 0, "tile-parallel raster workers per frame (0 = serial raster stage)")
		csvPath      = fs.String("csv", "", "write per-frame statistics as CSV to this file")
		watts        = fs.Bool("watts", false, "report estimated average power (1 energy unit = 1 pJ)")
		metricsOut   = fs.String("metrics-out", "", "write observability metrics (counters/histograms) as JSON to this file")
		traceOut     = fs.String("trace-out", "", "write a Chrome-trace JSON timeline (chrome://tracing, Perfetto) to this file")
		checkpoint   = fs.String("checkpoint", "", "checkpoint progress at frame granularity to this file (enables the supervised frame loop)")
		resume       = fs.Bool("resume", false, "resume completed frames from -checkpoint instead of re-simulating (needs -checkpoint)")
		retries      = fs.Int("retries", 0, "attempts per frame before quarantine under -checkpoint (0 = default)")
		workers      = fs.Int("workers", 1, "supervised frame-loop workers under -checkpoint (frame isolation keeps results identical)")
		runTimeout   = fs.Duration("run-timeout", 0, "overall wall-clock deadline for the run (0 = none)")
		stallTimeout = fs.Duration("stall-timeout", 0, "flag a worker stuck on one frame longer than this under -checkpoint (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runTimeout)
		defer cancel()
	}
	// A flag that only refines another does nothing without it: refuse
	// it instead of silently ignoring it. The supervisor's knobs need
	// -checkpoint; the generator's divisor needs -benchmark.
	var supervisorFlags []string
	frameDivSet := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "resume", "retries", "workers", "stall-timeout":
			supervisorFlags = append(supervisorFlags, "-"+f.Name)
		case "frame-div":
			frameDivSet = true
		}
	})
	if *checkpoint == "" && len(supervisorFlags) > 0 {
		return fmt.Errorf("%s require -checkpoint", strings.Join(supervisorFlags, ", "))
	}
	if *benchmark == "" && frameDivSet {
		return errors.New("-frame-div needs -benchmark")
	}

	tr, err := loadTrace(*tracePath, *benchmark, *frameDiv)
	if err != nil {
		return err
	}
	lo, hi := 0, tr.NumFrames()
	if *frames != "" {
		if lo, hi, err = parseRange(*frames, tr.NumFrames()); err != nil {
			return err
		}
	}

	gpu := megsim.DefaultGPUConfig()
	gpu.DeferredShading = *tbdr
	gpu.TileWorkers = *tileWorkers
	var reg *megsim.ObsRegistry
	if *metricsOut != "" || *traceOut != "" {
		reg = megsim.NewObsRegistry(0)
		gpu.Obs = reg
	}
	// Flush the requested observability outputs exactly once on EVERY
	// exit path: a failure or cancellation mid-run still writes whatever
	// was recorded up to that point (the partial timeline is precisely
	// what debugging needs), and the atomic writer cleans up after a
	// failed write.
	flushed := false
	flush := func() error {
		if reg == nil || flushed {
			return nil
		}
		flushed = true
		return report.WriteObsFiles(reg.Snapshot(), *metricsOut, *traceOut)
	}
	defer flush()

	var (
		series      []megsim.FrameStats
		quarantined []megsim.QuarantineRecord
		resumed     int
		start       = time.Now()
	)
	if *checkpoint != "" {
		series, quarantined, resumed, err = runSupervised(ctx, tr, gpu, lo, hi, supervisedOpts{
			checkpoint: *checkpoint, resume: *resume, retries: *retries,
			workers: *workers, stallTimeout: *stallTimeout, log: stdout,
		})
		if err != nil {
			return fmt.Errorf("%w (progress checkpointed to %s; rerun with -resume)", err, *checkpoint)
		}
	} else {
		sim, err := megsim.NewSimulator(gpu, tr)
		if err != nil {
			return err
		}
		for f := lo; f < hi; f++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("%w after %d of %d frames (use -checkpoint to make runs resumable)", err, f-lo, hi-lo)
			}
			series = append(series, sim.SimulateFrame(f))
		}
	}
	elapsed := time.Since(start)

	var total megsim.FrameStats
	for _, st := range series {
		if *perFrame {
			fmt.Fprintf(stdout, "frame %5d: cycles=%d dram=%d l2=%d tile=%d fragments=%d\n",
				st.Frame, st.Cycles, st.DRAM.Accesses, st.L2.Accesses, st.TileCache.Accesses, st.FragmentsShaded)
		}
		total.Add(&st)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := harness.WriteFrameStatsCSV(f, series); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	var snap *megsim.ObsSnapshot
	if reg != nil {
		snap = reg.Snapshot()
		if err := flush(); err != nil {
			return err
		}
	}

	model := power.DefaultEnergyModel()
	b := model.FrameEnergy(&total)
	g, ti, ra := b.Fractions()

	fmt.Fprintf(stdout, "workload:          %s (%d frames simulated in %v)\n", tr.Name, len(series), elapsed.Round(time.Millisecond))
	if resumed > 0 {
		fmt.Fprintf(stdout, "resumed:           %d frames from checkpoint\n", resumed)
	}
	if len(quarantined) > 0 {
		fmt.Fprintf(stdout, "PARTIAL RESULT: %d of %d frames quarantined — totals below exclude them\n",
			len(quarantined), hi-lo)
		for _, q := range quarantined {
			fmt.Fprintf(stdout, "  %s\n", q.String())
		}
	}
	fmt.Fprintf(stdout, "cycles:            %d (geometry %d, raster %d)\n", total.Cycles, total.GeometryCycles, total.RasterCycles)
	fmt.Fprintf(stdout, "ipc:               %.2f\n", total.IPC())
	fmt.Fprintf(stdout, "vertices shaded:   %d\n", total.VerticesShaded)
	fmt.Fprintf(stdout, "primitives:        %d in, %d visible\n", total.PrimsIn, total.PrimsVisible)
	fmt.Fprintf(stdout, "fragments shaded:  %d (%d occluded by early-Z)\n", total.FragmentsShaded, total.FragmentsOccluded)
	fmt.Fprintf(stdout, "dram accesses:     %d\n", total.DRAM.Accesses)
	fmt.Fprintf(stdout, "l2 accesses:       %d (%.1f%% hit)\n", total.L2.Accesses, total.L2.HitRate()*100)
	fmt.Fprintf(stdout, "tile cache:        %d accesses (%.1f%% hit)\n", total.TileCache.Accesses, total.TileCache.HitRate()*100)
	fmt.Fprintf(stdout, "texture caches:    %d accesses (%.1f%% hit)\n", total.TextureCache.Accesses, total.TextureCache.HitRate()*100)
	fmt.Fprintf(stdout, "utilization:       VP %.1f%%, FP %.1f%%\n",
		total.VPUtilization(gpu.NumVertexProcessors)*100, total.FPUtilization(gpu.NumFragmentProcessors)*100)
	fmt.Fprintf(stdout, "power fractions:   geometry %.1f%%, tiling %.1f%%, raster %.1f%%\n", g*100, ti*100, ra*100)
	if *watts {
		w := power.AveragePowerWatts(b, total.Cycles, 1.0, 600)
		fmt.Fprintf(stdout, "avg power:         %.3f W (at 600 MHz, 1 pJ/unit)\n", w)
	}
	if snap != nil {
		fmt.Fprintln(stdout)
		if err := report.ObsCounterTable(snap).Render(stdout); err != nil {
			return err
		}
	}
	return nil
}

type supervisedOpts struct {
	checkpoint   string
	resume       bool
	retries      int
	workers      int
	stallTimeout time.Duration
	log          io.Writer
}

// runSupervised runs the frame loop under the resilience supervisor:
// retry + quarantine per frame, frame-granularity checkpointing, resume,
// watchdog. Frame isolation makes each frame a pure function of its
// index, so the returned per-frame series is byte-identical to the
// serial loop whatever the worker count, retry history or resume point.
func runSupervised(ctx context.Context, tr *megsim.Trace, gpu megsim.GPUConfig, lo, hi int, o supervisedOpts) (series []megsim.FrameStats, quarantined []megsim.QuarantineRecord, resumed int, err error) {
	frames := make([]int, 0, hi-lo)
	for f := lo; f < hi; f++ {
		frames = append(frames, f)
	}
	rcfg := megsim.ResilienceConfig{
		Workers:        o.workers,
		MaxAttempts:    o.retries,
		CheckpointPath: o.checkpoint,
		Fingerprint:    megsim.RunFingerprint(tr, gpu),
		Resume:         o.resume,
		StallTimeout:   o.stallTimeout,
		Obs:            gpu.Obs,
	}
	res, err := megsim.Supervise(ctx, frames, megsim.FrameRunner(tr, gpu), rcfg)
	if res != nil && res.ResumeErr != nil {
		fmt.Fprintf(o.log, "WARNING: resume failed, started fresh: %v\n", res.ResumeErr)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	// Ascending frame order, exactly like the serial loop; quarantined
	// frames are absent from Stats and reported separately.
	for _, f := range frames {
		if st, ok := res.Stats[f]; ok {
			series = append(series, st)
		}
	}
	if len(res.StalledWorkers) > 0 {
		fmt.Fprintf(o.log, "WARNING: watchdog flagged stalled workers %v\n", res.StalledWorkers)
	}
	return series, res.Quarantined, len(res.Resumed), nil
}

func loadTrace(path, benchmark string, frameDiv int) (*megsim.Trace, error) {
	switch {
	case path != "" && benchmark != "":
		return nil, fmt.Errorf("use either -trace or -benchmark, not both")
	case path != "":
		return megsim.LoadTrace(path)
	case benchmark != "":
		sc := megsim.DefaultScale()
		sc.FrameDivisor = frameDiv
		return megsim.GenerateBenchmark(benchmark, sc)
	default:
		return nil, fmt.Errorf("need -trace or -benchmark")
	}
}

func parseRange(s string, n int) (lo, hi int, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad range %q (want lo:hi)", s)
	}
	if lo, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, fmt.Errorf("bad range %q: %v", s, err)
	}
	if hi, err = strconv.Atoi(parts[1]); err != nil {
		return 0, 0, fmt.Errorf("bad range %q: %v", s, err)
	}
	if lo < 0 || hi > n || lo >= hi {
		return 0, 0, fmt.Errorf("range %q out of [0,%d)", s, n)
	}
	return lo, hi, nil
}
