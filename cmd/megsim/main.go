// Command megsim runs the MEGsim methodology end to end on one
// workload: functional characterization, frame clustering, and
// cycle-level simulation of only the representative frames, printing the
// extrapolated full-sequence statistics. With -validate it additionally
// simulates the whole sequence (with invariant checking armed) and
// reports per-metric relative error against configurable tolerance
// bands, exiting non-zero when the accuracy gate fails (the paper's
// Fig. 7 evaluation for a single benchmark).
//
// Every run executes under the resilience supervisor: frames that fail
// or panic are retried with capped backoff and quarantined when they
// keep failing, quarantined representatives degrade gracefully (the
// next-closest in-cluster frame substitutes, weights rescale, the
// degradation is reported loudly), and SIGINT/SIGTERM cancel the run at
// the next frame boundary. With -checkpoint, progress is snapshotted at
// frame granularity so an interrupted run resumes with -resume and
// produces byte-identical results to an uninterrupted one.
//
// Usage:
//
//	megsim -benchmark bbr1
//	megsim -trace bbr1.trace -validate
//	megsim -benchmark hcr -validate -tol 2 -validate-out report.json
//	megsim -benchmark jjo -threshold 0.95 -seed 7
//	megsim -benchmark hcr -checkpoint run.ckpt          # interrupt freely…
//	megsim -benchmark hcr -checkpoint run.ckpt -resume  # …and pick up here
//	megsim -benchmark hcr -stream                       # bounded-memory streaming mode
//	megsim -benchmark hcr -stream -strata 48 -validate
//
// With -stream the batch pipeline (characterize everything, then
// cluster) is replaced by the streaming one: frames are characterized
// and folded into an online stratifier one at a time, so memory stays
// O(strata · reservoir) however long the trace is, and only each
// stratum's representative is ever simulated, after the stream ends.
// -validate, -checkpoint, -resume, retry/quarantine and -server all
// compose with it.
package main

import (
	"context"
	"encoding/json"
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

	"repro/internal/check"
	"repro/internal/harness"
	"repro/internal/serve"
	"repro/megsim"
)

func main() {
	// SIGINT/SIGTERM cancel the run context: workers stop at the next
	// frame boundary, the final checkpoint is flushed, and the process
	// exits non-zero with a resume hint instead of losing the run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "megsim:", err)
		os.Exit(1)
	}
}

// flagNeeds maps each flag that only refines another to the flag it
// needs.
var flagNeeds = map[string]string{
	"strata":       "stream",
	"reservoir":    "stream",
	"tol":          "validate",
	"validate-out": "validate",
	"resume":       "checkpoint",
	"frame-div":    "benchmark",
}

// run is the whole command behind a single error return so every exit
// path is uniform (and testable) instead of scattering os.Exit calls.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("megsim", flag.ContinueOnError)
	var (
		tracePath    = fs.String("trace", "", "trace file produced by tracegen")
		benchmark    = fs.String("benchmark", "", "generate this benchmark instead of loading a trace")
		frameDiv     = fs.Int("frame-div", 1, "frame divisor when generating (needs -benchmark)")
		threshold    = fs.Float64("threshold", 0.85, "BIC spread threshold T")
		seed         = fs.Uint64("seed", 1, "k-means initialization seed")
		validate     = fs.Bool("validate", false, "also run the full simulation and report relative errors")
		tbdr         = fs.Bool("tbdr", false, "simulate a TBDR GPU (hidden surface removal)")
		jsonOut      = fs.Bool("json", false, "print machine-readable JSON instead of text")
		saveSel      = fs.String("save-selection", "", "write the frame selection as JSON to this file")
		tolScale     = fs.Float64("tol", 1, "scale factor on the default -validate tolerance bands (needs -validate)")
		valOut       = fs.String("validate-out", "", "write the -validate accuracy report as JSON to this file (needs -validate)")
		checkpoint   = fs.String("checkpoint", "", "checkpoint progress at frame granularity to this file")
		resume       = fs.Bool("resume", false, "resume completed frames from -checkpoint instead of re-simulating (needs -checkpoint)")
		retries      = fs.Int("retries", 0, "attempts per frame before quarantine (0 = default)")
		quarantine   = fs.String("quarantine", "", "comma-separated frames to pre-quarantine (route around known-bad frames)")
		runTimeout   = fs.Duration("run-timeout", 0, "overall wall-clock deadline for the run (0 = none)")
		stallTimeout = fs.Duration("stall-timeout", 0, "flag a worker stuck on one frame longer than this (0 = off)")
		server       = fs.String("server", "", "submit the campaign to a megsimd daemon at this address instead of simulating locally")
		streamMode   = fs.Bool("stream", false, "streaming mode: online stratification with bounded memory instead of batch clustering")
		strata       = fs.Int("strata", 0, "streaming stratum budget (0 = default; needs -stream)")
		reservoir    = fs.Int("reservoir", 0, "streaming per-stratum reservoir capacity (0 = default; needs -stream)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runTimeout)
		defer cancel()
	}
	preQuarantine, err := parseFrameList(*quarantine)
	if err != nil {
		return fmt.Errorf("-quarantine: %w", err)
	}
	// A flag that only refines another does nothing without it: refuse
	// it instead of silently ignoring it.
	enabled := map[string]bool{
		"stream": *streamMode, "validate": *validate,
		"checkpoint": *checkpoint != "", "benchmark": *benchmark != "",
	}
	var unmet []string
	fs.Visit(func(f *flag.Flag) {
		if dep := flagNeeds[f.Name]; dep != "" && !enabled[dep] {
			unmet = append(unmet, fmt.Sprintf("-%s needs -%s", f.Name, dep))
		}
	})
	if len(unmet) > 0 {
		return errors.New(strings.Join(unmet, "; "))
	}

	// One campaign document for both modes, so a local run resolves its
	// defaults (seed 0, threshold 0) exactly as the daemon does.
	req := &serve.CampaignRequest{
		Workload:  serve.WorkloadSpec{Benchmark: *benchmark, FrameDiv: *frameDiv},
		Threshold: *threshold,
		Seed:      *seed,
		GPU:       serve.GPUSpec{TBDR: *tbdr},
		Resilience: serve.ResilienceSpec{
			Retries:        *retries,
			Quarantine:     preQuarantine,
			StallTimeoutMS: stallTimeout.Milliseconds(),
		},
	}
	if *streamMode {
		req.Stream = &serve.StreamSpec{MaxStrata: *strata, ReservoirCap: *reservoir}
	}

	if *server != "" {
		// Local-only flags make no sense against a daemon: validation is
		// a local ground-truth pass, and the daemon owns checkpointing
		// (one file per campaign fingerprint under its -checkpoint-dir).
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "trace", "validate", "tol", "validate-out", "save-selection", "checkpoint", "resume":
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			return fmt.Errorf("%s cannot be combined with -server", strings.Join(bad, ", "))
		}
		if *benchmark == "" {
			return fmt.Errorf("-server needs -benchmark (traces are generated daemon-side)")
		}
		return runRemote(ctx, *server, req, *jsonOut, stdout)
	}

	tr, err := loadTrace(*tracePath, *benchmark, *frameDiv)
	if err != nil {
		return err
	}

	gpu, err := req.GPUConfig()
	if err != nil {
		return err
	}
	// The resilience config stays local: checkpoint, resume and a
	// sub-millisecond -stall-timeout exist only in local mode.
	rcfg := megsim.ResilienceConfig{
		MaxAttempts:    *retries,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		Quarantine:     preQuarantine,
		StallTimeout:   *stallTimeout,
	}

	var (
		rep         *serve.CampaignReport
		estimate    *megsim.FrameStats
		sampledTime time.Duration
	)
	start := time.Now()
	if *streamMode {
		if *saveSel != "" {
			return fmt.Errorf("-save-selection records a batch clustering; it cannot be combined with -stream")
		}
		opts := megsim.StreamingOptions{Stream: req.StreamConfig(), Resilience: rcfg}
		srun, err := megsim.SampleStreaming(ctx, tr, opts, gpu)
		if err != nil {
			return resumeHint(err, *checkpoint)
		}
		sampledTime = time.Since(start)
		rep, estimate = serve.NewStreamingCampaignReport(srun, sampledTime), &srun.Estimate
	} else {
		rrun, err := megsim.SampleResilient(ctx, tr, req.MegsimConfig(), gpu, rcfg)
		if err != nil {
			return resumeHint(err, *checkpoint)
		}
		sampledTime = time.Since(start)
		rep, estimate = serve.NewCampaignReport(rrun, sampledTime), &rrun.Estimate
		if *saveSel != "" {
			if err := writeSelection(*saveSel, tr.Name, rrun.Run); err != nil {
				return err
			}
		}
	}

	var val *validation
	if *validate {
		// A degraded run cannot be held to the healthy-run accuracy
		// bands: substituted representatives and rescaled weights are a
		// best-effort estimate. Widen the bands 3x (mirroring the
		// degraded-mode oracle gate) and say so, rather than failing a
		// gate the methodology no longer promises, or silently passing.
		degraded := rep.Resilience != nil && rep.Resilience.Degraded
		effTol := *tolScale
		if degraded {
			effTol *= 3
		}
		val, err = validateEstimate(ctx, tr, estimate, gpu, effTol)
		if err != nil {
			return err
		}
		val.Degraded = degraded
		if *valOut != "" {
			if err := writeValidation(*valOut, tr.Name, val); err != nil {
				return err
			}
		}
	}
	return renderReport(stdout, rep, val, sampledTime, *jsonOut)
}

// resumeHint points a failed checkpointed run at -resume.
func resumeHint(err error, checkpoint string) error {
	if checkpoint != "" {
		return fmt.Errorf("%w (progress checkpointed to %s; rerun with -resume)", err, checkpoint)
	}
	return err
}

// renderReport renders batch and streaming runs through the one shared
// report type: -json here is byte-identical to the daemon's stored
// result payload (modulo sampled_run_ms wall-clock), and the text block
// is the same renderer megsim -server uses on fetched results.
func renderReport(stdout io.Writer, rep *serve.CampaignReport, val *validation, sampledTime time.Duration, jsonOut bool) error {
	if jsonOut {
		if err := printJSON(stdout, rep, val); err != nil {
			return err
		}
		return val.gateErr()
	}

	rep.WriteText(stdout)

	if val != nil {
		fmt.Fprintln(stdout)
		if val.Degraded {
			fmt.Fprintln(stdout, "validation bands widened 3x: degraded run")
		}
		fmt.Fprintf(stdout, "full simulation:  %v (%.0fx slower than the sampled run)\n",
			val.FullSimTime.Round(time.Millisecond), float64(val.FullSimTime)/float64(sampledTime))
		for _, m := range val.Metrics {
			verdict := "ok"
			if !m.Pass {
				verdict = "OUT OF BAND"
			}
			fmt.Fprintf(stdout, "relative error %-22s %.2f%% (band %.1f%%) %s\n",
				m.Name+":", m.RelErr*100, m.Tolerance*100, verdict)
		}
		for _, v := range val.Violations {
			fmt.Fprintf(stdout, "invariant violation: %s\n", v)
		}
	}
	return val.gateErr()
}

// validation is the -validate accuracy report: the sampled estimate
// judged against a fully simulated ground truth with invariant checks
// armed, per tolerance band.
type validation struct {
	Metrics    []check.MetricError `json:"metrics"`
	Violations []check.Violation   `json:"violations,omitempty"`
	// Degraded records that the estimate came from a degraded selection
	// and the bands were widened 3x accordingly.
	Degraded bool `json:"degraded,omitempty"`
	Pass     bool `json:"pass"`

	FullSimTime time.Duration `json:"-"`
}

// gateErr converts a failed report into the command's exit error. A nil
// receiver (no -validate) passes.
func (v *validation) gateErr() error {
	if v == nil || v.Pass {
		return nil
	}
	return fmt.Errorf("validation failed: accuracy out of band or invariants violated")
}

func validateEstimate(ctx context.Context, tr *megsim.Trace, est *megsim.FrameStats, gpu megsim.GPUConfig, tolScale float64) (*validation, error) {
	inv := check.NewInvariants(gpu)
	gpu.Check = inv
	start := time.Now()
	full, err := megsim.SimulateFullParallelCtx(ctx, tr, gpu, 0)
	if err != nil {
		return nil, err
	}
	val := &validation{FullSimTime: time.Since(start)}
	actual := megsim.SumStats(full)
	val.Metrics = check.CompareRows(est, &actual, check.DefaultTolerance().Scaled(tolScale))
	val.Violations = inv.Violations()
	val.Pass = len(val.Violations) == 0
	for _, m := range val.Metrics {
		if !m.Pass {
			val.Pass = false
		}
	}
	return val, nil
}

func writeValidation(path, workload string, val *validation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := struct {
		Workload string `json:"workload"`
		*validation
	}{workload, val}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// parseFrameList parses a comma-separated list of frame indices.
func parseFrameList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad frame %q", part)
		}
		out = append(out, f)
	}
	return out, nil
}

// printJSON emits a machine-readable run summary: the shared campaign
// report, plus the local-only validation block when -validate ran. With
// no validation attached the bytes match the daemon's result payload
// exactly.
func printJSON(w io.Writer, rep *serve.CampaignReport, val *validation) error {
	out := struct {
		*serve.CampaignReport
		Validation *validation `json:"validation,omitempty"`
	}{rep, val}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeSelection persists the selection so later runs (e.g. a design-
// space sweep on another machine) can re-simulate the representatives
// without redoing characterization.
func writeSelection(path, workload string, run *megsim.Run) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sum := harness.NewSelectionSummary(workload, run.Selection, false)
	if err := sum.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
