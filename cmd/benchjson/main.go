// Command benchjson converts `go test -bench` text output into a
// benchstat-compatible JSON baseline. The JSON keeps every raw
// benchmark and config line verbatim under "raw", so a stored baseline
// can be compared against a fresh run with benchstat without loss:
//
//	go test -run '^$' -bench . -count 5 ./internal/tbr/... > new.txt
//	jq -r '.raw[]' results/BENCH_tbr.json > old.txt
//	benchstat old.txt new.txt
//
// while the parsed "benchmarks" array makes the numbers scriptable
// (regression gates, plots) without re-parsing the text format.
//
// With -check it gates a fresh run against a committed baseline
// instead (see check.go): every unit ending in /op other than ns/op,
// B/op and allocs/op is a work count (b.ReportMetric's cycles/op,
// dram-accesses/op, ...) and must equal the baseline median exactly;
// allocs/op gets a tight tolerance and ns/op a generous backstop.
//
// Usage:
//
//	go test -run '^$' -bench . ./internal/cluster | benchjson -out BENCH_cluster.json
//	benchjson -in bench.txt -out BENCH_tbr.json
//	benchjson -check -baseline BENCH_tbr.json -in new.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name without the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Pkg is the import path from the most recent "pkg:" config line.
	Pkg string `json:"pkg,omitempty"`
	// Iterations is b.N for this run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value: "ns/op", "B/op", "allocs/op" and any
	// custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
	// Raw is the verbatim line.
	Raw string `json:"raw"`
}

// File is the whole converted run.
type File struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
	// Raw holds every config and benchmark line verbatim, in order —
	// feed to benchstat to reproduce the original input.
	Raw []string `json:"raw"`
}

func main() {
	var (
		in       = flag.String("in", "", "read benchmark text from this file (default stdin)")
		out      = flag.String("out", "", "write JSON to this file (default stdout)")
		check    = flag.Bool("check", false, "regression-check mode: compare the input run against -baseline and exit nonzero on failure")
		baseline = flag.String("baseline", "", "committed JSON baseline to compare against (required with -check)")

		maxSlowdown    = flag.Float64("max-slowdown", 2.5, "absolute ns/op gate: fail a benchmark above this factor of its baseline (generous: shared hosts are noisy)")
		maxAllocGrowth = flag.Float64("max-alloc-growth", 1.10, "allocs/op gate: fail a benchmark above this factor of its baseline (+1 alloc slack)")
	)
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	file, err := Parse(r)
	if err != nil {
		fatal(err)
	}
	if len(file.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	if *check {
		if *baseline == "" {
			fatal(fmt.Errorf("-check requires -baseline"))
		}
		lim := checkLimits{maxSlowdown: *maxSlowdown, maxAllocGrowth: *maxAllocGrowth}
		if err := runCheck(*baseline, file, lim, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		fatal(err)
	}
}

// Parse reads `go test -bench` output and extracts config and result
// lines. Unrecognized lines (test framework chatter, PASS/ok) are
// skipped.
func Parse(r io.Reader) (*File, error) {
	file := &File{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			file.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			file.Raw = append(file.Raw, line)
		case strings.HasPrefix(line, "goarch:"):
			file.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			file.Raw = append(file.Raw, line)
		case strings.HasPrefix(line, "cpu:"):
			file.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			file.Raw = append(file.Raw, line)
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			file.Raw = append(file.Raw, line)
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseResult(line, pkg)
			if err != nil {
				return nil, err
			}
			file.Benchmarks = append(file.Benchmarks, res)
			file.Raw = append(file.Raw, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return file, nil
}

func parseResult(line, pkg string) (Result, error) {
	fields := strings.Fields(line)
	// Name, iterations, then (value, unit) pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, fmt.Errorf("malformed benchmark line: %q", line)
	}
	res := Result{Pkg: pkg, Procs: 1, Metrics: map[string]float64{}, Raw: line}
	res.Name = fields[0]
	if i := strings.LastIndex(res.Name, "-"); i >= 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil && p > 0 {
			res.Procs = p
			res.Name = res.Name[:i]
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	res.Iterations = n
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("bad metric value in %q: %w", line, err)
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
