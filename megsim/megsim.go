// Package megsim is the public API of the MEGsim reproduction: a
// sampling methodology that accelerates cycle-accurate GPU simulation of
// graphics workloads by simulating only a small set of representative
// frames (Ortiz et al., "MEGsim: A Novel Methodology for Efficient
// Simulation of Graphics Workloads in GPUs", ISPASS 2022).
//
// The typical flow is:
//
//	trace := megsim.MustGenerateBenchmark("bbr1", megsim.DefaultScale())
//	run, err := megsim.SampleResilient(ctx, trace, megsim.DefaultConfig(),
//		megsim.DefaultGPUConfig(), megsim.ResilienceConfig{})
//	// run.Estimate holds full-sequence statistics obtained by
//	// simulating only run.Representatives (tens of frames instead of
//	// thousands), under the run supervisor's retry and quarantine.
//
// Everything is deterministic given the seeds carried in the configs.
// The heavy machinery lives in internal packages; this package re-exports
// the types a user needs through aliases so the whole system is usable
// from a single import.
package megsim

import (
	"context"
	"image"

	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/simmatrix"
	"repro/internal/tbr"
	"repro/internal/workload"
)

// Re-exported configuration and result types. Aliases keep the full
// method sets available to callers.
type (
	// Trace is a self-contained graphics workload: shader programs,
	// meshes, textures and a per-frame command stream.
	Trace = gltrace.Trace
	// Texture is a texture resource descriptor.
	Texture = gltrace.Texture
	// GPUConfig is the timing-simulator configuration (Table I).
	GPUConfig = tbr.Config
	// FrameStats are the per-frame (or aggregated) simulator outputs.
	FrameStats = tbr.FrameStats
	// Config is the MEGsim methodology configuration.
	Config = core.Config
	// Selection is a clustering plus one representative per cluster.
	Selection = core.Selection
	// Characterization is the functional-simulation profile of a trace.
	Characterization = funcsim.Result
	// FeatureSet is the N x D matrix of per-frame characteristics.
	FeatureSet = core.FeatureSet
	// Accuracy holds per-metric relative errors.
	Accuracy = core.Accuracy
	// Profile describes a synthetic benchmark workload.
	Profile = workload.Profile
	// Scale controls workload resolution and length.
	Scale = workload.Scale
	// Metric identifies one of the evaluated performance metrics.
	Metric = core.Metric
	// ObsRegistry is the observability layer's metric + timeline
	// registry. Attach one to GPUConfig.Obs (or harness options) to
	// collect per-stage pipeline metrics and Chrome-trace timelines; a
	// nil registry disables observability at near-zero cost.
	ObsRegistry = obs.Registry
	// ObsSnapshot is a plain-data copy of an ObsRegistry: counters,
	// histograms and timeline events, serializable as JSON or a Chrome
	// trace (WriteChromeTrace).
	ObsSnapshot = obs.Snapshot
)

// NewObsRegistry returns an enabled observability registry with the
// default timeline capacity. traceCapacity overrides the event ring
// size (0 = default, negative = metrics only, no timeline).
func NewObsRegistry(traceCapacity int) *ObsRegistry {
	return obs.NewWith(obs.Options{TraceCapacity: traceCapacity})
}

// Metric constants (the four key metrics of the paper's Fig. 7).
const (
	MetricCycles    = core.MetricCycles
	MetricDRAM      = core.MetricDRAM
	MetricL2        = core.MetricL2
	MetricTileCache = core.MetricTileCache
)

// Recorder is the immediate-mode trace-capture API for authoring
// workloads programmatically (see gltrace.NewRecorder).
type Recorder = gltrace.Recorder

// NewRecorder starts capturing a trace for a width x height render
// target.
func NewRecorder(name string, width, height int) *Recorder {
	return gltrace.NewRecorder(name, width, height)
}

// DefaultConfig returns the paper's methodology settings: phase weights
// (0.108, 0.745, 0.147), texture-filter weighting, PRIM component, BIC
// threshold T = 0.85.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultGPUConfig returns the Table I GPU configuration.
func DefaultGPUConfig() GPUConfig { return tbr.DefaultConfig() }

// DefaultScale returns the standard experiment scale (full Table II
// frame counts at reduced resolution).
func DefaultScale() Scale { return workload.DefaultScale }

// Benchmarks returns the Table II benchmark aliases.
func Benchmarks() []string { return workload.Aliases() }

// GetBenchmark returns a built-in benchmark profile by alias.
func GetBenchmark(alias string) (Profile, error) { return workload.Get(alias) }

// GenerateBenchmark synthesizes the trace of a built-in benchmark.
func GenerateBenchmark(alias string, sc Scale) (*Trace, error) {
	p, err := workload.Get(alias)
	if err != nil {
		return nil, err
	}
	return workload.Generate(p, sc)
}

// MustGenerateBenchmark is GenerateBenchmark panicking on error.
func MustGenerateBenchmark(alias string, sc Scale) *Trace {
	tr, err := GenerateBenchmark(alias, sc)
	if err != nil {
		panic(err)
	}
	return tr
}

// GenerateTrace synthesizes a trace from a custom profile.
func GenerateTrace(p Profile, sc Scale) (*Trace, error) { return workload.Generate(p, sc) }

// LoadTrace reads a trace file written by Trace.SaveFile.
func LoadTrace(path string) (*Trace, error) { return gltrace.LoadFile(path) }

// Characterize runs the fast functional simulation that produces the
// per-frame profiles MEGsim clusters on (the cheap first pass).
func Characterize(tr *Trace) (*Characterization, error) {
	return funcsim.Run(context.Background(), tr, nil)
}

// SelectFrames builds the vectors of characteristics and picks the
// representative frames.
func SelectFrames(ch *Characterization, cfg Config) (*Selection, error) {
	fs, err := core.BuildFeatures(ch, cfg.Feature)
	if err != nil {
		return nil, err
	}
	return core.Select(fs, cfg)
}

// Simulator is the cycle-level TBR GPU simulator.
type Simulator = tbr.Simulator

// NewSimulator builds a timing simulator over a trace.
func NewSimulator(cfg GPUConfig, tr *Trace) (*Simulator, error) { return tbr.New(cfg, tr) }

// Run is the complete outcome of a MEGsim sampling run.
type Run struct {
	// Trace is the analyzed workload.
	Trace *Trace
	// Characterization is the functional profile.
	Characterization *Characterization
	// Selection holds the clustering and the representative frames.
	Selection *Selection
	// RepresentativeStats maps representative frame -> simulated stats.
	RepresentativeStats map[int]FrameStats
	// Estimate is the extrapolated full-sequence statistics.
	Estimate FrameStats
}

// Representatives returns the frames that were actually simulated.
func (r *Run) Representatives() []int { return r.Selection.Representatives }

// ReductionFactor returns frames/representatives (the headline Table III
// metric).
func (r *Run) ReductionFactor() float64 { return r.Selection.ReductionFactor() }

// GPUPresets returns named GPU configurations (mali450 = Table I,
// lowend, highend, tbdr) for design-space studies.
func GPUPresets() map[string]GPUConfig { return tbr.Presets() }

// GPUPreset returns a named preset configuration.
func GPUPreset(name string) (GPUConfig, error) { return tbr.Preset(name) }

// RenderFrame rasterizes one frame of a trace to an image for visual
// inspection (per-material colors, depth shading).
func RenderFrame(tr *Trace, frame int) (*image.RGBA, error) {
	return funcsim.RenderFrame(tr, frame)
}

// SumStats totals per-frame statistics.
func SumStats(frames []FrameStats) FrameStats { return core.SumStats(frames) }

// CompareAccuracy returns the per-metric relative error of an estimate
// against ground truth.
func CompareAccuracy(estimate, actual *FrameStats) Accuracy {
	return core.EvaluateAccuracy(estimate, actual)
}

// SimilarityMatrix computes the frame similarity matrix of a feature
// set (Fig. 5); render it with WritePGM/WritePPM. Pass sel.Features for
// a whole selection, or a windowed FeatureSet for a sub-sequence.
func SimilarityMatrix(fs *FeatureSet) *simmatrix.Matrix {
	return simmatrix.New(fs.Vectors)
}
