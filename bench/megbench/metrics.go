package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression; 0 means any change in the worse direction counts.
// Floor, in the metric's unit, is the least worsening that counts: the
// tolerance is the larger of Bound times the median and Floor.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Floor  float64 `json:"-"`
}

// tolerance is how far a metric whose median is m may worsen.
func (d metricDef) tolerance(m float64) float64 {
	return max(d.Bound*math.Abs(m), d.Floor)
}

// endToEnd are the metrics every untraced run reports, on every
// workload, in its summary line; BENCHMARK.json lists the same names and
// units. The bounds are the ones -compare applies: it reports a metric
// whose base spread is wider as unresolved. BENCHMARK.json's bounds must
// also hold the spread measured on the benchmark's host, so they may be
// wider, never narrower. setup_s takes 10–40 ms, so a few milliseconds
// of scheduling move it by a quarter: it may also worsen by 0.05 s.
var endToEnd = []metricDef{
	{"frames_per_s", "frames/s", "higher", 0.10, 0},
	{"op_s_p50", "s", "lower", 0.10, 0},
	{"peak_rss_mb", "MiB", "lower", 0.10, 0},
	{"setup_s", "s", "lower", 0.10, 0.05},
}

// workloadMetrics are end-to-end metrics that exist on some workloads
// only, or that vary with the seed: those with a bound of 0 are exact
// for one seed. They go into the run's detail record, and -compare
// gates them too, the exact ones seed by seed.
var workloadMetrics = []metricDef{
	{"reduction_x", "x", "higher", 0, 0},
	{"op_s_p90", "s", "lower", 0.10, 0},
	{"sim_mcycles_per_s", "Mcycles/s", "higher", 0.10, 0},
	{"speedup_x", "x", "higher", 0.10, 0},
	{"cycles_err_pct", "%", "lower", 0, 0},
	{"mem_err_pct", "%", "lower", 0, 0},
	{"fail_frac", "fraction", "lower", 0, 0},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer that does not run on a workload reports 0. Times are mean host
// seconds per call unless the name says p50 or tail; "tail" is the
// highest percentile with at least minTail samples beyond it.
var perLayer = []metricDef{
	{"workload.generate_s", "s", "lower", 0, 0},
	{"workload.share", "fraction", "lower", 0, 0},
	{"funcsim.run_s", "s", "lower", 0, 0},
	{"funcsim.frames_per_s", "frames/s", "higher", 0, 0},
	{"funcsim.profile_s", "s", "lower", 0, 0},
	{"funcsim.share", "fraction", "lower", 0, 0},
	{"core.features_s", "s", "lower", 0, 0},
	{"core.select_s", "s", "lower", 0, 0},
	{"core.explored_k", "count", "lower", 0, 0},
	{"core.estimate_s", "s", "lower", 0, 0},
	{"core.share", "fraction", "lower", 0, 0},
	{"stream.add_s", "s", "lower", 0, 0},
	{"stream.finalize_s", "s", "lower", 0, 0},
	{"stream.strata", "count", "lower", 0, 0},
	{"stream.merges", "count", "lower", 0, 0},
	{"stream.peak_vectors", "count", "lower", 0, 0},
	{"stream.share", "fraction", "lower", 0, 0},
	{"tbr.frames", "count", "lower", 0, 0},
	{"tbr.frame_s_p50", "s", "lower", 0, 0},
	{"tbr.frame_s_tail", "s", "lower", 0, 0},
	{"tbr.full_s", "s", "lower", 0, 0},
	{"tbr.mcycles_per_s", "Mcycles/s", "higher", 0, 0},
	{"tbr.share", "fraction", "lower", 0, 0},
	{"resilience.self_s", "s", "lower", 0, 0},
	{"resilience.retries", "count", "lower", 0, 0},
	{"resilience.quarantined", "count", "lower", 0, 0},
	{"resilience.share", "fraction", "lower", 0, 0},
	{"serve.submit_s_p50", "s", "lower", 0, 0},
	{"serve.submit_s_tail", "s", "lower", 0, 0},
	{"serve.phase1_s_p50", "s", "lower", 0, 0},
	{"serve.fetch_s_p50", "s", "lower", 0, 0},
	{"serve.cache.trace_hit_frac", "fraction", "higher", 0, 0},
	{"serve.cache.char_hit_frac", "fraction", "higher", 0, 0},
	{"serve.cache.frame_hit_frac", "fraction", "higher", 0, 0},
	{"serve.jobs.rejected", "count", "lower", 0, 0},
	{"serve.report_encode_s", "s", "lower", 0, 0},
	{"serve.share", "fraction", "lower", 0, 0},
	{"fabric.dispatch_s_p50", "s", "lower", 0, 0},
	{"fabric.dispatch_s_tail", "s", "lower", 0, 0},
	{"fabric.worker_s_p50", "s", "lower", 0, 0},
	{"fabric.overhead_s_p50", "s", "lower", 0, 0},
	{"fabric.dispatch.sent", "count", "lower", 0, 0},
	{"fabric.dispatch.failover", "count", "lower", 0, 0},
	{"fabric.share", "fraction", "lower", 0, 0},
	{"unattributed.share", "fraction", "lower", 0, 0},
	{"trace.spans", "count", "lower", 0, 0},
	{"trace.frames_per_s", "frames/s", "higher", 0, 0},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is the machine a result was measured on. Results are comparable
// only at equal GOMAXPROCS.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	OS         string `json:"os"`
	CPU        string `json:"cpu"`
}

func currentEnv() env {
	return env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        cpuModel(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is the full record of one run: the summary line is cut from
// it, and -compare reads a log of them.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Smoke     bool             `json:"smoke,omitempty"`
	Env       env              `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	Ops       int              `json:"ops"`
	Passes    int              `json:"passes,omitempty"`
	Window    float64          `json:"window_s"`
	Digest    string           `json:"results_digest"`
	Pinned    string           `json:"pinned_digest,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Notes     map[string]any   `json:"notes,omitempty"`
}

// digestOf hashes the deterministic outputs of a run.
func digestOf(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\n", len(p))
		h.Write(p)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// summary is the last line of the output, the one BENCHMARK.json's
// runner reads: the end-to-end metrics from an untraced run, the
// per-layer metrics from a traced one.
func (r *result) summary() map[string]any {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	m := map[string]value{}
	for _, d := range defs {
		m[d.Name] = value{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": m}
}

// print writes the human-readable metric table, the detail record and,
// last, the summary line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "megbench %s seed=%d traced=%v ops=%d window=%.3fs gomaxprocs=%d nproc=%d %s %q\n",
		r.Workload, r.Seed, r.Traced, r.Ops, r.Window, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.GoVersion, r.Env.CPU)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %16.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	detail, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "detail %s\n", detail)
	last, err := json.Marshal(r.summary())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// unitOf returns the unit of a known metric.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, workloadMetrics, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
