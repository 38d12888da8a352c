package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/megsim"
)

// TestValidateWithinBandAcrossSeeds is the CLI half of the acceptance
// gate: `megsim -validate` on three fixed clustering seeds must report
// every metric's sampled-vs-full relative error within the configured
// band, in both shading models (seed 2 runs -tbdr).
func TestValidateWithinBandAcrossSeeds(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "report.json")
	for _, seed := range []uint64{1, 2, 3} {
		var buf bytes.Buffer
		args := []string{
			"-benchmark", "hcr", "-frame-div", "40",
			"-validate", "-seed", strconv.FormatUint(seed, 10),
			"-validate-out", outPath,
		}
		if seed == 2 {
			args = append(args, "-tbdr")
		}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatalf("seed %d: %v\noutput:\n%s", seed, err, buf.String())
		}
		out := buf.String()
		if strings.Contains(out, "OUT OF BAND") {
			t.Errorf("seed %d: accuracy out of band:\n%s", seed, out)
		}
		if !strings.Contains(out, "relative error cycles:") {
			t.Errorf("seed %d: missing per-metric error report:\n%s", seed, out)
		}

		data, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatalf("seed %d: report not written: %v", seed, err)
		}
		var rep struct {
			Workload string `json:"workload"`
			Metrics  []struct {
				Name   string  `json:"name"`
				RelErr float64 `json:"rel_err"`
				Pass   bool    `json:"pass"`
			} `json:"metrics"`
			Pass bool `json:"pass"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("seed %d: bad report JSON: %v", seed, err)
		}
		if !rep.Pass || len(rep.Metrics) != 4 {
			t.Errorf("seed %d: report = %+v, want 4 passing metrics", seed, rep)
		}
	}
}

func TestValidateJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-benchmark", "hcr", "-frame-div", "40", "-validate", "-json"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	var out struct {
		Workload   string `json:"workload"`
		Validation *struct {
			Pass bool `json:"pass"`
		} `json:"validation"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if out.Validation == nil || !out.Validation.Pass {
		t.Errorf("JSON output missing passing validation block: %s", buf.String())
	}
}

func TestValidateGateFailsOnImpossibleBand(t *testing.T) {
	// A tolerance scale of 0 makes every band 0%: the gate must fail
	// with a non-zero exit (an error from run).
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-benchmark", "hcr", "-frame-div", "40", "-validate", "-tol", "0"}, &buf)
	if err == nil {
		t.Fatalf("run passed with zero-width tolerance bands:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "OUT OF BAND") {
		t.Errorf("failing report does not mark metrics out of band:\n%s", buf.String())
	}
}

// TestZeroFlagsResolveLikeTheDaemon: -seed 0 and -threshold 0 mean
// "the default" in local mode exactly as they do in a daemon
// submission, so the local report equals the -seed 1 (default) one.
func TestZeroFlagsResolveLikeTheDaemon(t *testing.T) {
	report := func(extra ...string) string {
		var buf bytes.Buffer
		args := append([]string{"-benchmark", "hcr", "-frame-div", "40", "-json"}, extra...)
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatalf("run %v: %v\n%s", extra, err, buf.String())
		}
		return sampledJSONLine.ReplaceAllString(buf.String(), `"sampled_run_ms": 0`)
	}
	want := report("-seed", "1")
	for _, extra := range [][]string{{"-seed", "0"}, {"-threshold", "0"}} {
		if got := report(extra...); got != want {
			t.Errorf("%v report differs from the default:\n--- got ---\n%s\n--- want ---\n%s", extra, got, want)
		}
	}
}

// sampleJSON runs megsim -json with extra args and parses the summary.
type sampleSummary struct {
	Representatives []int  `json:"representatives"`
	Cycles          uint64 `json:"estimated_cycles"`
	DRAM            uint64 `json:"estimated_dram_accesses"`
	L2              uint64 `json:"estimated_l2_accesses"`
	Tile            uint64 `json:"estimated_tile_cache_accesses"`
	Resilience      *struct {
		Degraded      bool                      `json:"degraded"`
		Quarantined   []megsim.QuarantineRecord `json:"quarantined"`
		Resumed       []int                     `json:"resumed_frames"`
		Substitutions []struct {
			Cluster    int `json:"cluster"`
			Original   int `json:"original"`
			Substitute int `json:"substitute"`
		} `json:"substitutions"`
		ResumeError string `json:"resume_error"`
	} `json:"resilience"`
}

func sampleJSON(t *testing.T, extra ...string) sampleSummary {
	t.Helper()
	var buf bytes.Buffer
	args := append([]string{"-benchmark", "hcr", "-frame-div", "40", "-json"}, extra...)
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run %v: %v\n%s", extra, err, buf.String())
	}
	var out sampleSummary
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	return out
}

// TestResumeProducesIdenticalEstimates: a checkpointed run, resumed,
// must adopt every representative from the checkpoint and report the
// exact same estimates — and a corrupted checkpoint must fall back to a
// fresh (still identical) run with the failure reported, never trusted.
func TestResumeProducesIdenticalEstimates(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	fresh := sampleJSON(t, "-checkpoint", ckpt)
	if fresh.Resilience == nil {
		t.Fatal("resilience block missing from JSON output")
	}
	if len(fresh.Resilience.Resumed) != 0 {
		t.Fatalf("fresh run resumed frames: %v", fresh.Resilience.Resumed)
	}

	resumed := sampleJSON(t, "-checkpoint", ckpt, "-resume")
	if resumed.Resilience == nil || len(resumed.Resilience.Resumed) == 0 {
		t.Fatalf("resume adopted nothing: %+v", resumed.Resilience)
	}
	if resumed.Cycles != fresh.Cycles || resumed.DRAM != fresh.DRAM ||
		resumed.L2 != fresh.L2 || resumed.Tile != fresh.Tile {
		t.Fatalf("resumed estimates differ:\nfresh   %+v\nresumed %+v", fresh, resumed)
	}

	// Corrupt the checkpoint: the run must warn, start fresh, and still
	// land on the same estimates.
	if err := os.WriteFile(ckpt, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	repaired := sampleJSON(t, "-checkpoint", ckpt, "-resume")
	if repaired.Resilience == nil || repaired.Resilience.ResumeError == "" {
		t.Fatalf("corrupt checkpoint not reported: %+v", repaired.Resilience)
	}
	if len(repaired.Resilience.Resumed) != 0 {
		t.Fatalf("corrupt checkpoint partially trusted: %+v", repaired.Resilience)
	}
	if repaired.Cycles != fresh.Cycles {
		t.Fatalf("post-corruption run cycles = %d, want %d", repaired.Cycles, fresh.Cycles)
	}
}

// TestQuarantineDegradesLoudly: pre-quarantining a representative must
// substitute the next-closest in-cluster frame, mark the run degraded in
// both output formats, and widen the -validate bands 3x — degradation is
// reported, never silent, and never gated against healthy-run bands.
func TestQuarantineDegradesLoudly(t *testing.T) {
	healthy := sampleJSON(t)
	if len(healthy.Representatives) == 0 {
		t.Fatal("no representatives")
	}
	rep := strconv.Itoa(healthy.Representatives[0])

	degraded := sampleJSON(t, "-quarantine", rep)
	if degraded.Resilience == nil || !degraded.Resilience.Degraded {
		t.Fatalf("quarantined representative not reported as degraded: %+v", degraded.Resilience)
	}
	if len(degraded.Resilience.Substitutions) == 0 {
		t.Fatalf("no substitution recorded: %+v", degraded.Resilience)
	}
	s := degraded.Resilience.Substitutions[0]
	if s.Original != healthy.Representatives[0] || s.Substitute == s.Original {
		t.Fatalf("substitution %+v for quarantined rep %s", s, rep)
	}

	// Text mode: the degradation block and the widened-validation note.
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-benchmark", "hcr", "-frame-div", "40",
		"-quarantine", rep, "-validate", "-tol", "3",
	}, &buf)
	if err != nil {
		t.Fatalf("degraded validate run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"DEGRADED:", "substitute: cluster", "validation bands widened 3x"} {
		if !strings.Contains(out, want) {
			t.Errorf("degraded output missing %q:\n%s", want, out)
		}
	}
}

// TestErrorLineHasOnePrefix: a run that fails inside the library prints
// its error behind one "megsim: " prefix, as a run refused by megsim's
// own flag checks does.
func TestErrorLineHasOnePrefix(t *testing.T) {
	all := make([]string, 40)
	for f := range all {
		all[f] = strconv.Itoa(f)
	}
	err := run(context.Background(), []string{
		"-benchmark", "hcr", "-frame-div", "50", "-quarantine", strings.Join(all, ","),
	}, io.Discard)
	if err == nil {
		t.Fatal("a campaign with every frame quarantined succeeded")
	}
	if got, want := errorLine(err), "megsim: estimation: core: every cluster lost to quarantine; no estimate possible"; got != want {
		t.Errorf("error line %q, want %q", got, want)
	}
	err = run(context.Background(), []string{"-benchmark", "hcr", "-frames", "0:5"}, io.Discard)
	if err == nil {
		t.Fatal("-frames without -full accepted")
	}
	if got, want := errorLine(err), "megsim: -frames needs -full"; got != want {
		t.Errorf("error line %q, want %q", got, want)
	}
}

// TestTraceAndBenchmarkAreExclusive: a sampled run needs exactly one
// workload source, and a named benchmark must exist.
func TestTraceAndBenchmarkAreExclusive(t *testing.T) {
	checkWorkloadSource(t, nil)
}

// checkWorkloadSource runs the workload-source rules in one mode.
func checkWorkloadSource(t *testing.T, mode []string) {
	t.Helper()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "need -trace or -benchmark"},
		{[]string{"-trace", "x.trace", "-benchmark", "hcr"}, "-benchmark cannot be combined with -trace"},
		{[]string{"-benchmark", "not-a-benchmark"}, "unknown benchmark"},
		{[]string{"-trace", filepath.Join(t.TempDir(), "missing.trace")}, "missing.trace"},
	} {
		args := append(append([]string{}, mode...), tc.args...)
		err := run(context.Background(), args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %v, want mention of %q", args, err, tc.want)
		}
	}
}

// TestFrameDivNeedsBenchmark: -frame-div only divides a generated
// trace, so with -trace it is refused instead of silently ignored.
func TestFrameDivNeedsBenchmark(t *testing.T) {
	checkFrameDivNeedsBenchmark(t, nil)
}

// checkFrameDivNeedsBenchmark runs the -frame-div rule in one mode.
func checkFrameDivNeedsBenchmark(t *testing.T, mode []string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hcr.trace")
	sc := megsim.Scale{Width: 64, Height: 32, FrameDivisor: 100, DetailDivisor: 2}
	if err := megsim.MustGenerateBenchmark("hcr", sc).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	args := append(append([]string{}, mode...), "-trace", path)
	if err := run(context.Background(), args, io.Discard); err != nil {
		t.Fatalf("%v -trace alone: %v", mode, err)
	}
	err := run(context.Background(), append(args, "-frame-div", "4"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-frame-div needs -benchmark") {
		t.Fatalf("%v -trace -frame-div: error %v, want -frame-div needs -benchmark", mode, err)
	}
}

// TestRunTimeoutIsResumable: a sampled or -stream run killed by
// -run-timeout before any frame completes must fail with a resume hint
// when checkpointed, and point at -checkpoint when not.
func TestRunTimeoutIsResumable(t *testing.T) {
	checkRunTimeoutIsResumable(t, nil)
	checkRunTimeoutIsResumable(t, []string{"-stream"})
}

// checkRunTimeoutIsResumable runs the -run-timeout hints in one mode.
func checkRunTimeoutIsResumable(t *testing.T, mode []string) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	base := append([]string{"-benchmark", "hcr", "-frame-div", "40", "-run-timeout", "1ns"}, mode...)
	err := run(context.Background(), append(base, "-checkpoint", ckpt), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Errorf("%v: checkpointed timeout error has no resume hint: %v", mode, err)
	}
	err = run(context.Background(), base, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Errorf("%v: timeout error without -checkpoint has no checkpoint hint: %v", mode, err)
	}
}

// TestFlagRules: every cross-flag rule is checked before any trace is
// generated or loaded, so each refused run here names the broken rule,
// not the missing trace file, and writes nothing.
func TestFlagRules(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-stream", "-save-selection", out("sel.json")}, "-save-selection cannot be combined with -stream"},
		{[]string{"-resume"}, "-resume needs -checkpoint"},
		{[]string{"-full", "-resume"}, "-resume needs -checkpoint"},
		{[]string{"-frames", "0:2"}, "-frames needs -full"},
		{[]string{"-per-frame"}, "-per-frame needs -full"},
		{[]string{"-csv", out("f.csv")}, "-csv needs -full"},
		{[]string{"-watts"}, "-watts needs -full"},
		{[]string{"-full", "-stream"}, "-stream cannot be combined with -full"},
		{[]string{"-full", "-validate"}, "-validate cannot be combined with -full"},
		{[]string{"-full", "-server", "127.0.0.1:1"}, "-server cannot be combined with -full"},
		{[]string{"-full", "-threshold", "0.9"}, "-threshold cannot be combined with -full"},
		{[]string{"-full", "-seed", "3"}, "-seed cannot be combined with -full"},
		{[]string{"-full", "-save-selection", out("sel.json")}, "-save-selection cannot be combined with -full"},
		{[]string{"-full", "-json"}, "-json cannot be combined with -full"},
		{[]string{"-server", "127.0.0.1:1", "-metrics-out", out("m.json")}, "-metrics-out cannot be combined with -server"},
		{[]string{"-server", "127.0.0.1:1", "-trace-out", out("t.json")}, "-trace-out cannot be combined with -server"},
		{[]string{"-workers", "2"}, "flag provided but not defined: -workers"},
	} {
		args := append([]string{"-trace", out("missing.trace")}, tc.args...)
		err := run(context.Background(), args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %v, want mention of %q", tc.args, err, tc.want)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) > 0 {
		t.Fatalf("refused runs wrote %v (%v)", entries, err)
	}
}

// TestLocalRunsValidateLikeTheDaemon: a local run holds its campaign
// document to the daemon's bounds, a -trace run included, and no mode
// accepts a pre-quarantined frame outside the frames it runs.
func TestLocalRunsValidateLikeTheDaemon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hcr.trace")
	sc := megsim.DefaultScale()
	sc.FrameDivisor = 50
	if err := megsim.MustGenerateBenchmark("hcr", sc).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-quarantine", "-5"}, "negative quarantined frame -5"},
		{[]string{"-full", "-quarantine", "-5"}, "negative quarantined frame -5"},
		{[]string{"-retries", "1000"}, "retries 1000 out of"},
		{[]string{"-stall-timeout", "5h"}, "stall_timeout_ms"},
		{[]string{"-quarantine", "9999"}, "quarantined frame 9999 outside the campaign's 40 frames"},
		{[]string{"-stream", "-quarantine", "40"}, "quarantined frame 40 outside the campaign's 40 frames"},
		{[]string{"-full", "-frames", "0:4", "-quarantine", "4"}, "frame 4 outside the run's frames 0:4"},
	} {
		err := run(context.Background(), append([]string{"-trace", path}, tc.args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %v, want mention of %q", tc.args, err, tc.want)
		}
	}

	var buf bytes.Buffer
	args := []string{"-trace", path, "-full", "-frames", "0:3", "-quarantine", "1"}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("in-range -full quarantine: %v", err)
	}
	if !strings.Contains(buf.String(), "PARTIAL RESULT: 1 of 3 frames quarantined") {
		t.Fatalf("-full quarantine not reported:\n%s", buf.String())
	}
}
