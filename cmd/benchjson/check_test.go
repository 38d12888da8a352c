package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchFile builds a File from (name, ns/op, allocs/op) triples, with
// one line per repetition value so medians are exercised.
func benchFile(t *testing.T, entries map[string]struct {
	ns     []float64
	allocs float64
}) *File {
	t.Helper()
	f := &File{}
	for name, e := range entries {
		for _, ns := range e.ns {
			f.Benchmarks = append(f.Benchmarks, Result{
				Name:    name,
				Procs:   1,
				Metrics: map[string]float64{"ns/op": ns, "allocs/op": e.allocs},
			})
		}
	}
	return f
}

func writeBaseline(t *testing.T, f *File) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

type entry = struct {
	ns     []float64
	allocs float64
}

var defaultLimits = checkLimits{maxSlowdown: 2.5, maxAllocGrowth: 1.10}

func TestCheckPassesIdenticalRun(t *testing.T) {
	base := benchFile(t, map[string]entry{
		"BenchmarkA/serial": {ns: []float64{1000, 1100, 1050}, allocs: 40},
		"BenchmarkA/par":    {ns: []float64{500, 520, 510}, allocs: 40},
	})
	path := writeBaseline(t, base)
	var out bytes.Buffer
	if err := runCheck(path, base, defaultLimits, &out); err != nil {
		t.Fatalf("identical run failed check: %v\n%s", err, out.String())
	}
}

func TestCheckAbsoluteGateCatchesGrossSlowdown(t *testing.T) {
	base := benchFile(t, map[string]entry{
		"BenchmarkA": {ns: []float64{1000}, allocs: 0},
	})
	fresh := benchFile(t, map[string]entry{
		"BenchmarkA": {ns: []float64{3000}, allocs: 0},
	})
	path := writeBaseline(t, base)
	err := runCheck(path, fresh, defaultLimits, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "ns/op exceeds") {
		t.Fatalf("want absolute ns/op failure, got %v", err)
	}
}

// Allocation counts are deterministic, so the alloc gate fires well
// before wall-clock gates would: a reintroduced per-tile allocation is
// caught regardless of host speed.
func TestCheckAllocGateIsTight(t *testing.T) {
	base := benchFile(t, map[string]entry{
		"BenchmarkA": {ns: []float64{1000}, allocs: 40},
	})
	fresh := benchFile(t, map[string]entry{
		"BenchmarkA": {ns: []float64{1000}, allocs: 60},
	})
	path := writeBaseline(t, base)
	err := runCheck(path, fresh, defaultLimits, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("want allocs/op failure, got %v", err)
	}

	// One alloc of slack: 40 -> 45 stays inside 40*1.10+1.
	ok := benchFile(t, map[string]entry{
		"BenchmarkA": {ns: []float64{1000}, allocs: 45},
	})
	if err := runCheck(path, ok, defaultLimits, &bytes.Buffer{}); err != nil {
		t.Fatalf("45 allocs within 1.10x+1 of 40 should pass: %v", err)
	}
}

func TestCheckMissingBenchmarkFails(t *testing.T) {
	base := benchFile(t, map[string]entry{
		"BenchmarkA": {ns: []float64{1000}, allocs: 0},
		"BenchmarkB": {ns: []float64{1000}, allocs: 0},
	})
	fresh := benchFile(t, map[string]entry{
		"BenchmarkA": {ns: []float64{1000}, allocs: 0},
	})
	path := writeBaseline(t, base)
	err := runCheck(path, fresh, defaultLimits, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "missing from fresh run") {
		t.Fatalf("want missing-benchmark failure, got %v", err)
	}
}

func TestCheckUsesMedianNotMean(t *testing.T) {
	base := benchFile(t, map[string]entry{
		"BenchmarkA": {ns: []float64{1000, 1000, 1000}, allocs: 0},
	})
	// One wild outlier among the repetitions must not trip the gate:
	// median of {900, 1000, 100000} is 1000.
	fresh := benchFile(t, map[string]entry{
		"BenchmarkA": {ns: []float64{900, 1000, 100000}, allocs: 0},
	})
	path := writeBaseline(t, base)
	if err := runCheck(path, fresh, defaultLimits, &bytes.Buffer{}); err != nil {
		t.Fatalf("outlier repetition should be absorbed by the median: %v", err)
	}
}

// procsFile builds a File of single-repetition ns/op results keyed by
// (name, GOMAXPROCS).
func procsFile(results map[benchKey]float64) *File {
	f := &File{}
	for k, ns := range results {
		f.Benchmarks = append(f.Benchmarks, Result{Name: k.name, Procs: k.procs, Metrics: map[string]float64{"ns/op": ns}})
	}
	return f
}

// A fresh run at a GOMAXPROCS the baseline never recorded must be
// refused, not compared against another machine shape.
func TestCheckRefusesBaselineWithoutMatchingProcs(t *testing.T) {
	path := writeBaseline(t, procsFile(map[benchKey]float64{{"BenchmarkA", 1}: 1000}))
	fresh := procsFile(map[benchKey]float64{{"BenchmarkA", 1}: 1000, {"BenchmarkA", 2}: 600})
	err := runCheck(path, fresh, defaultLimits, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "no results at GOMAXPROCS=2") {
		t.Fatalf("want refusal of a procs-1-only baseline, got %v", err)
	}
}

// Each GOMAXPROCS is judged against its own baseline: a procs-2 result
// that lost its parallel speed-up fails even though it would hide
// inside a median taken across procs.
func TestCheckComparesLikeProcs(t *testing.T) {
	path := writeBaseline(t, procsFile(map[benchKey]float64{{"BenchmarkA", 1}: 1000, {"BenchmarkA", 2}: 500}))
	ok := procsFile(map[benchKey]float64{{"BenchmarkA", 1}: 1000, {"BenchmarkA", 2}: 600})
	if err := runCheck(path, ok, defaultLimits, &bytes.Buffer{}); err != nil {
		t.Fatalf("within-limit run failed: %v", err)
	}
	slow := procsFile(map[benchKey]float64{{"BenchmarkA", 1}: 1000, {"BenchmarkA", 2}: 1400})
	err := runCheck(path, slow, defaultLimits, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkA-2") {
		t.Fatalf("want BenchmarkA-2 failure, got %v", err)
	}
}

// countFile builds a File of one benchmark, repeated once per entry of
// ns, that reports the given work counts alongside ns/op.
func countFile(ns []float64, counts map[string]float64) *File {
	f := &File{}
	for _, v := range ns {
		m := map[string]float64{"ns/op": v, "B/op": 64, "allocs/op": 2}
		for u, c := range counts {
			m[u] = c
		}
		f.Benchmarks = append(f.Benchmarks, Result{Name: "BenchmarkSim", Procs: 1, Metrics: m})
	}
	return f
}

// Work counts are exact: a uniformly 2x slower host passes, one extra
// DRAM access in a million-cycle frame fails.
func TestCheckCountGateIsExact(t *testing.T) {
	counts := map[string]float64{"cycles/op": 1002298, "dram-accesses/op": 73825}
	path := writeBaseline(t, countFile([]float64{1000, 1100, 1050}, counts))
	if err := runCheck(path, countFile([]float64{2000, 2200, 2100}, counts), defaultLimits, &bytes.Buffer{}); err != nil {
		t.Fatalf("equal counts on a 2x slower host should pass: %v", err)
	}
	moved := map[string]float64{"cycles/op": 1002298, "dram-accesses/op": 73826}
	err := runCheck(path, countFile([]float64{1000, 1100, 1050}, moved), defaultLimits, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "dram-accesses/op 73826 differs from baseline 73825") {
		t.Fatalf("want dram-accesses/op failure, got %v", err)
	}
	if strings.Contains(err.Error(), "cycles/op") {
		t.Fatalf("unchanged cycles/op reported as failing: %v", err)
	}
}

// A count present on only one side fails in both directions: a
// dropped counter must not pass silently, and a new one needs a
// re-recorded baseline.
func TestCheckCountMissingFails(t *testing.T) {
	both := map[string]float64{"cycles/op": 10, "l2-accesses/op": 5}
	one := map[string]float64{"cycles/op": 10}
	for _, c := range []struct {
		name        string
		base, fresh map[string]float64
	}{
		{"missing from fresh run", both, one},
		{"missing from baseline", one, both},
	} {
		path := writeBaseline(t, countFile([]float64{1000}, c.base))
		err := runCheck(path, countFile([]float64{1000}, c.fresh), defaultLimits, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "l2-accesses/op reported on one side only") {
			t.Errorf("%s: want l2-accesses/op failure, got %v", c.name, err)
		}
	}
}

func TestIsCount(t *testing.T) {
	for unit, want := range map[string]bool{
		"cycles/op": true, "tile-accesses/op": true,
		"ns/op": false, "B/op": false, "allocs/op": false, "MB/s": false, "frames": false,
	} {
		if got := isCount(unit); got != want {
			t.Errorf("isCount(%q) = %v, want %v", unit, got, want)
		}
	}
}
