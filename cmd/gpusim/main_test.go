package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/megsim"
)

func TestParseRange(t *testing.T) {
	cases := []struct {
		in      string
		n       int
		lo, hi  int
		wantErr bool
	}{
		{"0:10", 100, 0, 10, false},
		{"5:100", 100, 5, 100, false},
		{"10:5", 100, 0, 0, true},
		{"0:101", 100, 0, 0, true},
		{"-1:5", 100, 0, 0, true},
		{"abc", 100, 0, 0, true},
		{"1:x", 100, 0, 0, true},
		{"", 100, 0, 0, true},
	}
	for _, c := range cases {
		lo, hi, err := parseRange(c.in, c.n)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseRange(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseRange(%q): %v", c.in, err)
			continue
		}
		if lo != c.lo || hi != c.hi {
			t.Errorf("parseRange(%q) = %d:%d, want %d:%d", c.in, lo, hi, c.lo, c.hi)
		}
	}
}

func TestLoadTraceValidation(t *testing.T) {
	if _, err := loadTrace("", "", 1); err == nil {
		t.Fatal("accepted neither -trace nor -benchmark")
	}
	if _, err := loadTrace("a", "b", 1); err == nil {
		t.Fatal("accepted both -trace and -benchmark")
	}
	if _, err := loadTrace("", "not-a-benchmark", 1); err == nil {
		t.Fatal("accepted unknown benchmark")
	}
}

// TestFrameDivNeedsBenchmark: -frame-div only divides a generated
// trace, so with -trace it is refused instead of silently ignored.
func TestFrameDivNeedsBenchmark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hcr.trace")
	sc := megsim.Scale{Width: 64, Height: 32, FrameDivisor: 200, DetailDivisor: 2}
	if err := megsim.MustGenerateBenchmark("hcr", sc).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-trace", path}, io.Discard); err != nil {
		t.Fatalf("-trace alone: %v", err)
	}
	err := run(context.Background(), []string{"-trace", path, "-frame-div", "4"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-frame-div needs -benchmark") {
		t.Fatalf("-trace -frame-div: error %v, want -frame-div needs -benchmark", err)
	}
}

// mustValidJSON fails the test unless path holds well-formed JSON.
func mustValidJSON(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("obs output missing: %v", err)
	}
	if !json.Valid(data) {
		t.Fatalf("%s is not valid JSON (%d bytes)", path, len(data))
	}
}

// TestRunWritesObsOutputs exercises the happy path end to end: a tiny
// generated benchmark must leave well-formed metrics and Chrome-trace
// files behind.
func TestRunWritesObsOutputs(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	trace := filepath.Join(dir, "trace.json")
	var out strings.Builder
	err := run(context.Background(), []string{
		"-benchmark", "hcr", "-frame-div", "100", "-frames", "0:2",
		"-metrics-out", metrics, "-trace-out", trace,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	mustValidJSON(t, metrics)
	mustValidJSON(t, trace)
	if !strings.Contains(out.String(), "cycles:") {
		t.Fatalf("summary missing from output:\n%s", out.String())
	}
}

// TestRunFlushesObsOnError: a failure after the registry is attached
// (here: a -csv file that cannot be created) used to os.Exit past the
// flush, losing the -metrics-out/-trace-out files entirely. The error
// must surface AND the files must exist.
func TestRunFlushesObsOnError(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	trace := filepath.Join(dir, "trace.json")
	err := run(context.Background(), []string{
		"-benchmark", "hcr", "-frame-div", "100", "-frames", "0:2",
		"-csv", filepath.Join(dir, "missing", "frames.csv"),
		"-metrics-out", metrics, "-trace-out", trace,
	}, io.Discard)
	if err == nil {
		t.Fatal("uncreatable -csv file accepted")
	}
	if !strings.Contains(err.Error(), "frames.csv") {
		t.Fatalf("error lost the cause: %v", err)
	}
	mustValidJSON(t, metrics)
	mustValidJSON(t, trace)
}

// TestRunCleansUpFailedObsWrite: when the obs flush itself cannot
// complete (unwritable destination), the run must fail and leave no
// partial or temporary files behind.
func TestRunCleansUpFailedObsWrite(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "no-such-subdir", "metrics.json")
	err := run(context.Background(), []string{
		"-benchmark", "hcr", "-frame-div", "100", "-frames", "0:1",
		"-metrics-out", metrics,
	}, io.Discard)
	if err == nil {
		t.Fatal("unwritable -metrics-out accepted")
	}
	entries, rdErr := os.ReadDir(dir)
	if rdErr != nil {
		t.Fatal(rdErr)
	}
	for _, e := range entries {
		t.Fatalf("leftover file after failed flush: %s", e.Name())
	}
}

// statLines extracts the deterministic statistics lines from a summary
// (drops the "workload:" header, whose elapsed time varies run to run,
// and the resume accounting line).
func statLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "workload:") || strings.HasPrefix(line, "resumed:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestRunCheckpointResumeByteIdentical is the CLI half of the headline
// guarantee: a partial checkpointed run, resumed over a wider frame
// range, produces byte-identical per-frame CSV and summary statistics
// to an uninterrupted run — with the adopted frames reported.
func TestRunCheckpointResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-benchmark", "hcr", "-frame-div", "100"}

	// Uninterrupted reference over frames 0:4.
	refCSV := filepath.Join(dir, "ref.csv")
	var refOut strings.Builder
	args := append(append([]string{}, base...),
		"-frames", "0:4", "-csv", refCSV, "-checkpoint", filepath.Join(dir, "ref.ckpt"))
	if err := run(context.Background(), args, &refOut); err != nil {
		t.Fatalf("reference run: %v\n%s", err, refOut.String())
	}

	// "Interrupted" run: only the first two frames, checkpointed.
	ckpt := filepath.Join(dir, "run.ckpt")
	args = append(append([]string{}, base...), "-frames", "0:2", "-checkpoint", ckpt)
	if err := run(context.Background(), args, io.Discard); err != nil {
		t.Fatalf("partial run: %v", err)
	}

	// Resume over the full range: frames 0 and 1 come from the
	// checkpoint, 2 and 3 are simulated, results are identical.
	resCSV := filepath.Join(dir, "res.csv")
	var resOut strings.Builder
	args = append(append([]string{}, base...),
		"-frames", "0:4", "-csv", resCSV, "-checkpoint", ckpt, "-resume", "-workers", "2")
	if err := run(context.Background(), args, &resOut); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, resOut.String())
	}
	if !strings.Contains(resOut.String(), "resumed:           2 frames") {
		t.Fatalf("resume accounting missing:\n%s", resOut.String())
	}

	ref, err := os.ReadFile(refCSV)
	if err != nil {
		t.Fatal(err)
	}
	res, err := os.ReadFile(resCSV)
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != string(res) {
		t.Fatalf("per-frame CSV differs between resumed and uninterrupted runs:\n%s\nvs\n%s", res, ref)
	}
	if statLines(refOut.String()) != statLines(resOut.String()) {
		t.Fatalf("summaries differ:\n%s\nvs\n%s", resOut.String(), refOut.String())
	}
}

// TestRunCorruptCheckpointFallsBack: garbage in the checkpoint file must
// be reported, never trusted — the run warns, starts fresh, succeeds,
// and repairs the file.
func TestRunCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	if err := os.WriteFile(ckpt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run(context.Background(), []string{
		"-benchmark", "hcr", "-frame-div", "100", "-frames", "0:2",
		"-checkpoint", ckpt, "-resume",
	}, &out)
	if err != nil {
		t.Fatalf("corrupt checkpoint aborted the run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "WARNING: resume failed") {
		t.Fatalf("corruption not reported:\n%s", out.String())
	}

	// The file was rewritten; a second resume must now adopt cleanly.
	var out2 strings.Builder
	err = run(context.Background(), []string{
		"-benchmark", "hcr", "-frame-div", "100", "-frames", "0:2",
		"-checkpoint", ckpt, "-resume",
	}, &out2)
	if err != nil {
		t.Fatalf("resume from repaired checkpoint: %v", err)
	}
	if !strings.Contains(out2.String(), "resumed:           2 frames") {
		t.Fatalf("repaired checkpoint not adopted:\n%s", out2.String())
	}
}

// TestRunTimeoutIsResumable: a deadline that fires before the first
// frame completes must fail with a resume hint, and a run without
// -checkpoint must point at -checkpoint instead.
func TestRunTimeoutIsResumable(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	err := run(context.Background(), []string{
		"-benchmark", "hcr", "-frame-div", "100",
		"-checkpoint", ckpt, "-run-timeout", "1ns",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("supervised timeout error has no resume hint: %v", err)
	}

	err = run(context.Background(), []string{
		"-benchmark", "hcr", "-frame-div", "100", "-run-timeout", "1ns",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Fatalf("timeout error without -checkpoint has no checkpoint hint: %v", err)
	}
}

func TestSupervisedFlagsRequireCheckpoint(t *testing.T) {
	args := []string{"-benchmark", "hcr", "-frame-div", "200", "-resume"}
	err := run(context.Background(), args, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-resume requires -checkpoint") {
		t.Errorf("-resume without -checkpoint: error %v, want mention of -checkpoint", err)
	}
}

// TestSupervisorFlagsWithoutCheckpoint: the frame loop is always
// supervised, so -workers and -retries work without -checkpoint and
// give the same per-frame CSV and summary as the default run.
func TestSupervisorFlagsWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-benchmark", "hcr", "-frame-div", "100", "-frames", "0:4"}
	outputs := func(name string, extra ...string) (string, string) {
		csv := filepath.Join(dir, name+".csv")
		var out strings.Builder
		args := append(append(append([]string{}, base...), "-csv", csv), extra...)
		if err := run(context.Background(), args, &out); err != nil {
			t.Fatalf("%v: %v\n%s", extra, err, out.String())
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		return string(data), statLines(out.String())
	}
	refCSV, refStats := outputs("ref")
	csv, stats := outputs("supervised", "-workers", "2", "-retries", "1")
	if csv != refCSV {
		t.Fatalf("per-frame CSV differs:\n%s\nvs\n%s", csv, refCSV)
	}
	if stats != refStats {
		t.Fatalf("summaries differ:\n%s\nvs\n%s", stats, refStats)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("run without -checkpoint left %d files, want the two CSVs", len(entries))
	}
}
