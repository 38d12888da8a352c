package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
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

// TestFullTraceAndBenchmarkAreExclusive: a -full run needs exactly one
// workload source, and a named benchmark must exist.
func TestFullTraceAndBenchmarkAreExclusive(t *testing.T) {
	checkWorkloadSource(t, []string{"-full"})
}

// TestFullFrameDivNeedsBenchmark: -full refuses -frame-div with -trace
// as a sampled run does.
func TestFullFrameDivNeedsBenchmark(t *testing.T) {
	checkFrameDivNeedsBenchmark(t, []string{"-full"})
}

// TestFullRunTimeoutIsResumable: a -full run killed by -run-timeout
// gives the same resume and checkpoint hints as a sampled run.
func TestFullRunTimeoutIsResumable(t *testing.T) {
	checkRunTimeoutIsResumable(t, []string{"-full"})
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

// withGOMAXPROCS runs f at the given GOMAXPROCS, the supervisor's
// default worker count.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestRunWritesObsOutputs exercises the happy path end to end: a tiny
// generated benchmark must leave well-formed metrics and Chrome-trace
// files behind, from a -full run and from a sampled one.
func TestRunWritesObsOutputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-full", "-frames", "0:2"}, "cycles:"},
		{nil, "estimated cycles:"},
	} {
		dir := t.TempDir()
		metrics := filepath.Join(dir, "metrics.json")
		trace := filepath.Join(dir, "trace.json")
		var out strings.Builder
		args := append([]string{
			"-benchmark", "hcr", "-frame-div", "100",
			"-metrics-out", metrics, "-trace-out", trace,
		}, tc.args...)
		if err := run(context.Background(), args, &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		mustValidJSON(t, metrics)
		mustValidJSON(t, trace)
		if !strings.Contains(out.String(), tc.want) {
			t.Fatalf("%v: summary missing from output:\n%s", tc.args, out.String())
		}
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
		"-full", "-benchmark", "hcr", "-frame-div", "100", "-frames", "0:2",
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
		"-full", "-benchmark", "hcr", "-frame-div", "100", "-frames", "0:1",
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
// guarantee: a partial checkpointed -full run, resumed over a wider
// frame range at another GOMAXPROCS, produces byte-identical per-frame
// CSV and summary statistics to an uninterrupted run — with the adopted
// frames reported.
func TestRunCheckpointResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-full", "-benchmark", "hcr", "-frame-div", "100"}

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
		"-frames", "0:4", "-csv", resCSV, "-checkpoint", ckpt, "-resume")
	withGOMAXPROCS(2, func() {
		if err := run(context.Background(), args, &resOut); err != nil {
			t.Fatalf("resumed run: %v\n%s", err, resOut.String())
		}
	})
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
	args := []string{
		"-full", "-benchmark", "hcr", "-frame-div", "100", "-frames", "0:2",
		"-checkpoint", ckpt, "-resume",
	}
	var out strings.Builder
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("corrupt checkpoint aborted the run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "WARNING: resume failed") {
		t.Fatalf("corruption not reported:\n%s", out.String())
	}

	// The file was rewritten; a second resume must now adopt cleanly.
	var out2 strings.Builder
	if err := run(context.Background(), args, &out2); err != nil {
		t.Fatalf("resume from repaired checkpoint: %v", err)
	}
	if !strings.Contains(out2.String(), "resumed:           2 frames") {
		t.Fatalf("repaired checkpoint not adopted:\n%s", out2.String())
	}
}

// TestSupervisorFlagsWithoutCheckpoint: the frame loop is always
// supervised, so GOMAXPROCS and -retries change nothing without
// -checkpoint: the per-frame CSV and summary equal the default run's,
// and no file but the CSVs is left behind.
func TestSupervisorFlagsWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-full", "-benchmark", "hcr", "-frame-div", "100", "-frames", "0:4"}
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
	var refCSV, refStats, csv, stats string
	withGOMAXPROCS(1, func() { refCSV, refStats = outputs("ref") })
	withGOMAXPROCS(2, func() { csv, stats = outputs("supervised", "-retries", "1") })
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
