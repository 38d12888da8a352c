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

var defaultLimits = checkLimits{maxSlowdown: 2.5, maxRatioGrowth: 1.25, maxAllocGrowth: 1.10}

func TestCheckPassesIdenticalRun(t *testing.T) {
	base := benchFile(t, map[string]entry{
		"BenchmarkA/serial": {ns: []float64{1000, 1100, 1050}, allocs: 40},
		"BenchmarkA/par":    {ns: []float64{500, 520, 510}, allocs: 40},
	})
	path := writeBaseline(t, base)
	var out bytes.Buffer
	pairs := []ratioPair{{num: "BenchmarkA/par", den: "BenchmarkA/serial"}}
	if err := runCheck(path, base, pairs, defaultLimits, &out); err != nil {
		t.Fatalf("identical run failed check: %v\n%s", err, out.String())
	}
}

// A uniformly slower host must pass: both sides of the ratio pair see
// the same slowdown, and 2x is inside the generous absolute gate.
func TestCheckRatioGateCancelsHostNoise(t *testing.T) {
	base := benchFile(t, map[string]entry{
		"BenchmarkA/serial": {ns: []float64{1000}, allocs: 40},
		"BenchmarkA/par":    {ns: []float64{500}, allocs: 40},
	})
	fresh := benchFile(t, map[string]entry{
		"BenchmarkA/serial": {ns: []float64{2000}, allocs: 40},
		"BenchmarkA/par":    {ns: []float64{1000}, allocs: 40},
	})
	path := writeBaseline(t, base)
	pairs := []ratioPair{{num: "BenchmarkA/par", den: "BenchmarkA/serial"}}
	if err := runCheck(path, fresh, pairs, defaultLimits, &bytes.Buffer{}); err != nil {
		t.Fatalf("uniform 2x host slowdown should pass: %v", err)
	}
}

// The parallel path regressing while serial holds shifts the ratio and
// must fail even though the absolute numbers stay under the 2.5x gate.
func TestCheckRatioGateCatchesHotPathRegression(t *testing.T) {
	base := benchFile(t, map[string]entry{
		"BenchmarkA/serial": {ns: []float64{1000}, allocs: 40},
		"BenchmarkA/par":    {ns: []float64{500}, allocs: 40},
	})
	fresh := benchFile(t, map[string]entry{
		"BenchmarkA/serial": {ns: []float64{1000}, allocs: 40},
		"BenchmarkA/par":    {ns: []float64{900}, allocs: 40}, // 1.8x slower, ratio 0.9 vs 0.5
	})
	path := writeBaseline(t, base)
	pairs := []ratioPair{{num: "BenchmarkA/par", den: "BenchmarkA/serial"}}
	err := runCheck(path, fresh, pairs, defaultLimits, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "ratio") {
		t.Fatalf("want ratio failure, got %v", err)
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
	err := runCheck(path, fresh, nil, defaultLimits, &bytes.Buffer{})
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
	err := runCheck(path, fresh, nil, defaultLimits, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("want allocs/op failure, got %v", err)
	}

	// One alloc of slack: 40 -> 45 stays inside 40*1.10+1.
	ok := benchFile(t, map[string]entry{
		"BenchmarkA": {ns: []float64{1000}, allocs: 45},
	})
	if err := runCheck(path, ok, nil, defaultLimits, &bytes.Buffer{}); err != nil {
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
	err := runCheck(path, fresh, nil, defaultLimits, &bytes.Buffer{})
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
	if err := runCheck(path, fresh, nil, defaultLimits, &bytes.Buffer{}); err != nil {
		t.Fatalf("outlier repetition should be absorbed by the median: %v", err)
	}
}

func TestRatioListParsing(t *testing.T) {
	var r ratioList
	if err := r.Set("BenchmarkA/par:BenchmarkA/serial"); err != nil {
		t.Fatal(err)
	}
	if len(r) != 1 || r[0].num != "BenchmarkA/par" || r[0].den != "BenchmarkA/serial" {
		t.Fatalf("parsed %+v", r)
	}
	for _, bad := range []string{"", "noseparator", ":den", "num:"} {
		var r2 ratioList
		if err := r2.Set(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
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
	err := runCheck(path, fresh, nil, defaultLimits, &bytes.Buffer{})
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
	if err := runCheck(path, ok, nil, defaultLimits, &bytes.Buffer{}); err != nil {
		t.Fatalf("within-limit run failed: %v", err)
	}
	slow := procsFile(map[benchKey]float64{{"BenchmarkA", 1}: 1000, {"BenchmarkA", 2}: 1400})
	err := runCheck(path, slow, nil, defaultLimits, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkA-2") {
		t.Fatalf("want BenchmarkA-2 failure, got %v", err)
	}
}

// A ratio is judged at the baseline's highest GOMAXPROCS only: the
// procs-1 ratio may move freely, a serialized procs-2 run fails.
func TestCheckRatioAtTopProcs(t *testing.T) {
	base := procsFile(map[benchKey]float64{
		{"BenchmarkA/serial", 1}: 1000, {"BenchmarkA/par", 1}: 1000,
		{"BenchmarkA/serial", 2}: 1000, {"BenchmarkA/par", 2}: 500,
	})
	path := writeBaseline(t, base)
	pairs := []ratioPair{{num: "BenchmarkA/par", den: "BenchmarkA/serial"}}
	drift := procsFile(map[benchKey]float64{
		{"BenchmarkA/serial", 1}: 800, {"BenchmarkA/par", 1}: 1300,
		{"BenchmarkA/serial", 2}: 1000, {"BenchmarkA/par", 2}: 520,
	})
	if err := runCheck(path, drift, pairs, defaultLimits, &bytes.Buffer{}); err != nil {
		t.Fatalf("procs-1 ratio drift tripped the ratio gate: %v", err)
	}
	serialized := procsFile(map[benchKey]float64{
		{"BenchmarkA/serial", 1}: 1000, {"BenchmarkA/par", 1}: 1000,
		{"BenchmarkA/serial", 2}: 1000, {"BenchmarkA/par", 2}: 1000,
	})
	err := runCheck(path, serialized, pairs, defaultLimits, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "ratio BenchmarkA/par-2") {
		t.Fatalf("want procs-2 ratio failure, got %v", err)
	}
}
