// Command megbench is the whole-campaign benchmark of the MEGsim
// reproduction. One run executes one workload in its own process for a
// fixed time, checks every output, and prints its metrics by name and
// unit; the last line of standard output is the summary:
//
//	bash bench/run.sh -workload batch-cold -seed 1 -seconds 20 -trace 0
//
// With -trace 1 the run also records a span around every call into a
// layer and reports the per-layer metrics instead of the end-to-end
// ones. -compare reads result logs and compares two sets of runs. See
// bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/workload"
)

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []struct {
	name string
	new  func(*bench) runner
}{
	{"batch-cold", func(b *bench) runner { return &batchCold{b: b} }},
	{"stream-long", func(b *bench) runner { return &streamLong{b: b} }},
	{"sweep-cluster", func(b *bench) runner { return newSweepCluster(b) }},
	{"validate-full", func(b *bench) runner { return &validateFull{b: b} }},
}

// runner is one workload.
type runner interface {
	// setup builds the workload's fixtures and runs one untimed
	// TestScale warm-up op. It may run again after close.
	setup(ctx context.Context) error
	// measure runs the timed window and records it in oc.
	measure(ctx context.Context, oc *outcome)
	close()
}

// setupRepeats is how many times a run sets up; setup_s is the median.
// One set-up takes 10–40 ms, so single ones are at the mercy of the
// scheduler.
const setupRepeats = 9

// defaultSeed is the seed whose results digests are pinned.
const defaultSeed = 1

// Seed-derivation tags, one per workload.
const (
	tagBatch = iota + 1
	tagStream
	tagValidate
	tagSweep
)

// Where a run reads the pinned digests and writes its result log, Chrome
// trace and layer table, relative to the repository root it runs from.
// The self-tests point them elsewhere.
var (
	digestsPath = "bench/testdata/digests.json"
	outDir      = ".bench_build"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	update   bool
}

// bench is the state one run shares across its workload's calls.
type bench struct {
	o     options
	rec   *recorder
	tally *tally
	scale workload.Scale
	log   io.Writer
}

func (b *bench) seconds() time.Duration { return time.Duration(b.o.seconds * float64(time.Second)) }

// outcome is what a workload's timed window produced.
type outcome struct {
	attempted, failed int
	problems          []string
	digest            [][]byte
	ops, passes       int
	window            time.Duration
	metrics           map[string]float64 // end-to-end and workload metrics
	layers            map[string]float64 // per-layer values the workload reads itself
	notes             map[string]any
}

// maxProblems bounds how many failures a result lists.
const maxProblems = 20

func (oc *outcome) fail(format string, args ...any) {
	oc.failed++
	if len(oc.problems) < maxProblems {
		oc.problems = append(oc.problems, fmt.Sprintf(format, args...))
	}
}

// tally accumulates counts and times from concurrent calls.
type tally struct {
	mu sync.Mutex
	m  map[string]float64
}

func newTally() *tally { return &tally{m: map[string]float64{}} }

func (t *tally) add(k string, v float64) {
	t.mu.Lock()
	t.m[k] += v
	t.mu.Unlock()
}

func (t *tally) max(k string, v float64) {
	t.mu.Lock()
	t.m[k] = max(t.m[k], v)
	t.mu.Unlock()
}

// reset drops everything set-up added.
func (t *tally) reset() {
	t.mu.Lock()
	t.m = map[string]float64{}
	t.mu.Unlock()
}

func (t *tally) get(k string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

// ratio returns get(num)/get(den), 0 when den is 0.
func (t *tally) ratio(num, den string) float64 {
	if d := t.get(den); d != 0 {
		return t.get(num) / d
	}
	return 0
}

// mix derives a seed from the run seed and a path of indexes
// (splitmix64 steps), so every input of a run is a function of -seed.
func mix(seed uint64, path ...uint64) uint64 {
	x := seed
	for _, p := range path {
		x += p*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

func main() {
	procStart := time.Now()
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, procStart))
}

func realMain(args []string, stdout, stderr io.Writer, procStart time.Time) int {
	fs := flag.NewFlagSet("megbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: batch-cold, stream-long, sweep-cluster or validate-full")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed every input of the run is derived from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics, 0 reports end-to-end metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "run at workload.TestScale with one pass (self-test)")
	fs.BoolVar(&o.update, "update", false, "pin this run's results digest instead of checking it")
	compare := fs.Bool("compare", false, "compare result logs given as arguments (one log: its spread; two: base against new)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "megbench: -trace takes 0 or 1")
		return 2
	}
	o.trace = trace == 1
	res, err := run(context.Background(), o, procStart, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "megbench:", err)
		return 1
	}
	if err := appendResult(filepath.Join(outDir, "results.jsonl"), res); err != nil {
		fmt.Fprintln(stderr, "megbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "megbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one workload: set-up (timed, setupRepeats times), the
// timed window, the output checks, and the metrics.
func run(ctx context.Context, o options, procStart time.Time, log io.Writer) (*result, error) {
	var newRunner func(*bench) runner
	for _, w := range workloads {
		if w.name == o.workload {
			newRunner = w.new
		}
	}
	if newRunner == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.smoke {
		o.seconds = 0
	}
	b := &bench{o: o, rec: newRecorder(procStart), tally: newTally(), scale: workload.DefaultScale, log: log}
	if o.smoke {
		b.scale = workload.TestScale
	}
	w := newRunner(b)
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
		}
		t := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	firstOp := time.Since(procStart).Seconds()
	b.tally.reset()
	b.rec.on.Store(o.trace)
	oc := &outcome{metrics: map[string]float64{}, layers: map[string]float64{}, notes: map[string]any{}}
	w.measure(ctx, oc)
	w.close()

	res := &result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Smoke: o.smoke,
		Env: currentEnv(), Attempted: oc.attempted, Failed: oc.failed, Problems: oc.problems,
		Ops: oc.ops, Passes: oc.passes, Window: oc.window.Seconds(),
		Digest: digestOf(oc.digest), Metrics: map[string]value{}, Notes: oc.notes,
	}
	res.Notes["setup_s_each"] = setups
	res.Notes["first_op_after_start_s"] = firstOp
	oc.metrics["setup_s"] = median(setups)
	oc.metrics["peak_rss_mb"] = peakRSSMiB()
	if oc.attempted > 0 {
		oc.metrics["fail_frac"] = float64(oc.failed) / float64(oc.attempted)
	}
	for k, v := range oc.metrics {
		res.Metrics[k] = value{v, unitOf(k)}
	}
	if o.trace {
		spans := b.rec.snapshot()
		for k, v := range layerMetrics(b, spans, oc) {
			res.Metrics[k] = value{v, unitOf(k)}
		}
		if err := writeTraceFiles(b, spans); err != nil {
			return nil, err
		}
	}
	if err := checkDigest(digestsPath, o, res); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// layerMetrics computes every per-layer metric from the spans and the
// tallies of a traced run.
func layerMetrics(b *bench, spans []span, oc *outcome) map[string]float64 {
	a := attribute(spans)
	t := b.tally
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	meanOf := func(name string) float64 { return mean(durations(spans, name)) }
	// tailOf is the tail of xs; the notes say which percentile that is
	// and over how many samples.
	tailOf := func(name string, xs []float64) float64 {
		pct, _, _ := tail(xs)
		oc.notes[name] = map[string]float64{"percentile": pct, "samples": float64(len(xs))}
		return tailOrMax(xs)
	}
	m["workload.generate_s"] = meanOf("workload.generate")
	m["funcsim.run_s"] = meanOf("funcsim.run")
	m["funcsim.frames_per_s"] = t.ratio("funcsim.frames", "funcsim.s")
	m["core.features_s"] = meanOf("core.features")
	m["core.select_s"] = meanOf("core.select")
	m["core.explored_k"] = t.ratio("core.explored_k", "core.selections")
	m["core.estimate_s"] = t.ratio("core.estimate.s", "core.estimate.n")
	m["tbr.full_s"] = meanOf("tbr.full")
	m["tbr.mcycles_per_s"] = t.ratio("tbr.cycles", "tbr.s") / 1e6
	if a.Roots > 0 {
		m["tbr.frames"] = t.get("tbr.frames") / float64(a.Roots)
	}
	frames := durations(spans, "tbr.frame")
	m["tbr.frame_s_p50"] = median(frames)
	m["tbr.frame_s_tail"] = tailOf("tbr.frame_s_tail", frames)
	if n := len(durations(spans, "resilience.supervise")); n > 0 {
		m["resilience.self_s"] = a.Layer["resilience"].Seconds() / float64(n)
	}
	m["resilience.retries"] = t.get("resilience.retries")
	m["resilience.quarantined"] = t.get("resilience.quarantined")
	m["serve.report_encode_s"] = meanOf("serve.report")
	submit := durations(spans, "serve.submit")
	m["serve.submit_s_p50"] = median(submit)
	m["serve.submit_s_tail"] = tailOf("serve.submit_s_tail", submit)
	m["serve.phase1_s_p50"] = median(durations(spans, "serve.phase1"))
	m["serve.fetch_s_p50"] = median(durations(spans, "serve.fetch"))
	dispatch, overhead := overheads(spans)
	m["fabric.dispatch_s_p50"] = median(dispatch)
	m["fabric.dispatch_s_tail"] = tailOf("fabric.dispatch_s_tail", dispatch)
	m["fabric.overhead_s_p50"] = median(overhead)
	if len(dispatch) > 0 {
		m["fabric.worker_s_p50"] = m["tbr.frame_s_p50"]
	}

	// Streaming ingest is one call; the replay's split of ingest time
	// between profiling and the stratifier divides its self time.
	m["funcsim.profile_s"] = t.ratio("replay.profile.s", "replay.frames")
	m["stream.add_s"] = t.ratio("replay.add.s", "replay.frames")
	m["stream.finalize_s"] = t.ratio("replay.finalize.s", "replay.finalize.n")
	m["stream.strata"] = t.ratio("stream.strata", "stream.campaigns")
	m["stream.merges"] = t.ratio("stream.merges", "stream.campaigns")
	m["stream.peak_vectors"] = t.get("stream.peak_vectors")
	if p := t.get("replay.profile.s"); p > 0 {
		m["funcsim.frames_per_s"] = t.get("replay.frames") / p
	}
	shares := map[string]float64{}
	for _, l := range []string{"workload", "funcsim", "core", "stream", "tbr", "resilience", "serve", "fabric", rootLayer} {
		shares[l] = a.share(l)
	}
	if ingest := a.share("ingest"); ingest > 0 {
		split := t.ratio("replay.profile.s", "replay.ingest.s")
		shares["funcsim"] += ingest * split
		shares["stream"] += ingest * (1 - split)
	}
	for l, s := range shares {
		m[l+".share"] = s
	}
	m["trace.spans"] = float64(len(spans))
	m["trace.frames_per_s"] = oc.metrics["frames_per_s"]
	for k, v := range oc.layers {
		m[k] = v
	}
	return m
}

// tailOrMax is the tail percentile of xs, or its maximum when there are
// too few samples for one.
func tailOrMax(xs []float64) float64 {
	if _, v, ok := tail(xs); ok {
		return v
	}
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[len(xs)-1]
}

// writeTraceFiles writes the traced run's Chrome trace and per-layer
// self-time table, and prints the table to the log.
func writeTraceFiles(b *bench, spans []span) error {
	a := attribute(spans)
	writeLayerTable(b.log, a)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("megbench-%s-seed%d", b.o.workload, b.o.seed))
	f, err := os.Create(stem + ".trace.json")
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	g, err := os.Create(stem + ".layers.txt")
	if err != nil {
		return err
	}
	writeLayerTable(g, a)
	return g.Close()
}

// checkDigest compares the run's results digest with the one pinned in
// the file at path for the default seed (or pins it with -update). A
// mismatch is a failure.
func checkDigest(path string, o options, res *result) error {
	if o.seed != defaultSeed {
		return nil
	}
	key := o.workload
	if o.smoke {
		key = "smoke/" + key
	}
	pinned := map[string]string{}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &pinned); err != nil {
			return fmt.Errorf("digests %s: %w", path, err)
		}
	case errors.Is(err, os.ErrNotExist) && o.update:
	default:
		return err
	}
	if o.update {
		if res.Failed > 0 {
			return errors.New("refusing to pin the digest of a run with failures")
		}
		pinned[key] = res.Digest
		out, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(out, '\n'), 0o644)
	}
	res.Pinned = pinned[key]
	if res.Pinned == "" {
		res.Attempted++
		res.Failed++
		res.Problems = append(res.Problems, fmt.Sprintf("no pinned digest for %s in %s", key, path))
	} else if res.Pinned != res.Digest {
		res.Attempted++
		res.Failed++
		res.Problems = append(res.Problems, fmt.Sprintf("results digest %s differs from the pinned %s", res.Digest, res.Pinned))
	}
	return nil
}

// appendResult appends res as one JSON line to the log at path.
func appendResult(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
