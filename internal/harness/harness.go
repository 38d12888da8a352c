// Package harness orchestrates complete MEGsim studies: workload
// generation, functional characterization, cluster selection,
// cycle-level simulation (full sequence and representatives only), and
// accuracy evaluation. The experiment harness (cmd/experiments and the
// root bench suite) builds every paper table and figure from the
// cached per-benchmark results this package produces.
package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/internal/workload"
)

// Options configures a study.
type Options struct {
	// Ctx, when non-nil, bounds the study: cancellation (or deadline
	// expiry) stops functional characterization and the simulation
	// passes at the next frame boundary and surfaces the context's
	// error. Nil means context.Background().
	Ctx context.Context
	// GPU is the timing-simulator configuration (Table I defaults).
	GPU tbr.Config
	// MEGsim is the methodology configuration.
	MEGsim core.Config
	// Scale is the workload scale.
	Scale workload.Scale
	// Workers bounds the goroutines the cycle-simulation passes fan
	// frames out over (0 = GOMAXPROCS; see tbr.SimulateFrames). Affects
	// wall clock only, never results.
	Workers int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Obs, when non-nil and enabled, receives metrics and timeline
	// spans from every study phase: functional characterization,
	// cluster selection and cycle simulation. It is threaded into
	// GPU.Obs and MEGsim.Search.Obs (without overriding registries the
	// caller set there explicitly).
	Obs *obs.Registry
}

// ctx returns the study context (Background when unset).
func (o *Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// wireObs propagates opts.Obs into the phase configurations.
func (o *Options) wireObs() {
	if !o.Obs.Enabled() {
		return
	}
	if o.GPU.Obs == nil {
		o.GPU.Obs = o.Obs
	}
	if o.MEGsim.Search.Obs == nil {
		o.MEGsim.Search.Obs = o.Obs
	}
}

// DefaultOptions returns paper-default settings at the experiment scale.
func DefaultOptions() Options {
	return Options{
		GPU:    tbr.DefaultConfig(),
		MEGsim: core.DefaultConfig(),
		Scale:  workload.DefaultScale,
	}
}

// TestOptions returns small, fast settings for tests.
func TestOptions() Options {
	return Options{
		GPU:    tbr.DefaultConfig(),
		MEGsim: core.DefaultConfig(),
		Scale:  workload.TestScale,
	}
}

// BenchmarkResult is everything computed for one benchmark.
type BenchmarkResult struct {
	Profile workload.Profile
	Trace   *gltrace.Trace
	// Func is the functional characterization (MEGsim's cheap pass).
	Func *funcsim.Result
	// Features is the N x D matrix of characteristics.
	Features *core.FeatureSet
	// Selection is MEGsim's clustering + representatives.
	Selection *core.Selection
	// Full holds per-frame ground-truth stats from the cycle simulator.
	Full []tbr.FrameStats
	// FullTotals is the summed ground truth.
	FullTotals tbr.FrameStats
	// Estimate is MEGsim's extrapolation from the representatives.
	Estimate tbr.FrameStats
	// Accuracy is the per-metric relative error of Estimate vs
	// FullTotals (Fig. 7).
	Accuracy core.Accuracy

	// Timing of the study phases (wall clock), for speedup reporting.
	FuncSimTime    time.Duration
	SelectTime     time.Duration
	FullSimTime    time.Duration
	SampledSimTime time.Duration
}

// Run executes the complete study for one benchmark: trace generation,
// functional characterization, MEGsim selection, full-sequence ground
// truth, representative-only simulation, and accuracy evaluation.
func Run(p workload.Profile, opts Options) (*BenchmarkResult, error) {
	opts.wireObs()
	if err := opts.ctx().Err(); err != nil {
		return nil, err
	}
	res := &BenchmarkResult{Profile: p}
	logf(opts.Log, "[%s] generating trace", p.Alias)
	tr, err := workload.Generate(p, opts.Scale)
	if err != nil {
		return nil, err
	}
	res.Trace = tr

	logf(opts.Log, "[%s] functional characterization of %d frames", p.Alias, tr.NumFrames())
	t0 := time.Now()
	fr, err := funcsim.Run(opts.ctx(), tr, opts.Obs)
	if err != nil {
		return nil, err
	}
	res.Func = fr
	res.FuncSimTime = time.Since(t0)

	t0 = time.Now()
	if err := res.selectFrames(opts); err != nil {
		return nil, err
	}
	res.SelectTime = time.Since(t0)
	logf(opts.Log, "[%s] MEGsim selected %d/%d frames (%.0fx reduction)",
		p.Alias, res.Selection.NumRepresentatives(), tr.NumFrames(), res.Selection.ReductionFactor())

	logf(opts.Log, "[%s] full-sequence cycle simulation", p.Alias)
	t0 = time.Now()
	res.Full, err = tbr.SimulateFrames(opts.ctx(), opts.GPU, tr, nil, opts.Workers)
	if err != nil {
		return nil, err
	}
	res.FullSimTime = time.Since(t0)
	res.FullTotals = core.SumStats(res.Full)

	// Representative-only simulation, exactly as a MEGsim user would
	// run it (same parallelism as the ground-truth pass so the
	// reported time speedup is apples-to-apples).
	t0 = time.Now()
	repStats, err := simulateReps(opts, tr, res.Selection.Representatives)
	if err != nil {
		return nil, err
	}
	res.SampledSimTime = time.Since(t0)
	res.Estimate, err = res.Selection.Estimate(repStats)
	if err != nil {
		return nil, err
	}
	res.Accuracy = core.EvaluateAccuracy(&res.Estimate, &res.FullTotals)
	logf(opts.Log, "[%s] accuracy: cycles %.2f%%, dram %.2f%%, l2 %.2f%%, tile %.2f%%",
		p.Alias, res.Accuracy.Percent(core.MetricCycles), res.Accuracy.Percent(core.MetricDRAM),
		res.Accuracy.Percent(core.MetricL2), res.Accuracy.Percent(core.MetricTileCache))
	return res, nil
}

// simulateReps cycle-simulates exactly the representative frames.
func simulateReps(opts Options, tr *gltrace.Trace, reps []int) (map[int]tbr.FrameStats, error) {
	stats, err := tbr.SimulateFrames(opts.ctx(), opts.GPU, tr, reps, opts.Workers)
	if err != nil {
		return nil, err
	}
	repStats := make(map[int]tbr.FrameStats, len(reps))
	for i, f := range reps {
		repStats[f] = stats[i]
	}
	return repStats, nil
}

func (r *BenchmarkResult) selectFrames(opts Options) error {
	fs, err := core.BuildFeatures(r.Func, opts.MEGsim.Feature)
	if err != nil {
		return err
	}
	r.Features = fs
	sel, err := core.Select(fs, opts.MEGsim)
	if err != nil {
		return err
	}
	r.Selection = sel
	return nil
}

// SpeedupFrames returns the Table III reduction factor.
func (r *BenchmarkResult) SpeedupFrames() float64 {
	return r.Selection.ReductionFactor()
}

// SpeedupTime returns the measured wall-clock cycle-simulation speedup
// (full pass vs representatives-only pass).
func (r *BenchmarkResult) SpeedupTime() float64 {
	if r.SampledSimTime <= 0 {
		return 0
	}
	return float64(r.FullSimTime) / float64(r.SampledSimTime)
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
