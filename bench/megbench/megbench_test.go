package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailHasTenSamplesBeyondIt(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Fatal("10 samples leave none with ten beyond it")
	}
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{11, 100.0 / 11, 1},
		{100, 90, 90},
		{1000, 99, 990},
	} {
		pct, v, ok := tail(seq(c.n))
		if !ok || v != c.want || pct != c.pct {
			t.Errorf("tail of 1..%d = p%.4g %v (ok %v), want p%.4g %v", c.n, pct, v, ok, c.pct, c.want)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != minTail {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, minTail)
		}
	}
	if got := tailOrMax([]float64{3, 9, 1}); got != 9 {
		t.Errorf("tailOrMax of too few samples = %v, want their maximum", got)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestAttributeSelfTime(t *testing.T) {
	sp := func(id, parent, op int64, layer string, start, end int64) span {
		return span{ID: id, Parent: parent, Op: op, Layer: layer, Start: start, End: end}
	}
	spans := []span{
		sp(1, 0, 1, rootLayer, 0, 100),
		sp(2, 1, 1, "funcsim", 10, 50),
		sp(3, 2, 1, "tbr", 20, 30),       // nested in funcsim
		sp(4, 1, 1, "core", 40, 80),      // overlaps funcsim at equal depth
		sp(5, 1, 1, "core", 60, 70),      // overlaps its own layer: counted once
		sp(6, 1, 1, "serve", 95, 120),    // runs past the root: clamped
		sp(7, 0, 7, rootLayer, 200, 210), // a second op
		sp(8, 0, -1, "workload", 0, 1000),
	}
	a := attribute(spans)
	if a.Roots != 2 || a.Wall != 110 {
		t.Fatalf("roots %d wall %v, want 2 and 110ns", a.Roots, a.Wall)
	}
	want := map[string]time.Duration{
		rootLayer: 10 + 15 + 10, // 0–10, 80–95, the second op
		"funcsim": 10 + 10 + 5,  // 10–20, 30–40, half of 40–50
		"tbr":     10,
		"core":    5 + 30, // half of 40–50, then 50–80
		"serve":   5,
	}
	total := time.Duration(0)
	for l, d := range a.Layer {
		total += d
		if d != want[l] {
			t.Errorf("layer %s self time %v, want %v", l, d, want[l])
		}
	}
	if total != a.Wall {
		t.Errorf("self times sum to %v, want the wall time %v", total, a.Wall)
	}
	if got := a.share("core"); got != 35.0/110 {
		t.Errorf("core share %v", got)
	}
}

// TestSmoke runs every workload at workload.TestScale, untraced and
// traced, and checks the summary line and the pinned smoke digests.
func TestSmoke(t *testing.T) {
	useTestPaths(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"-workload", w.name, "-smoke", "-trace", trace}, &stdout, &stderr, time.Now())
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var sum struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]value
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not the summary: %v", err)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !sum.Correct || sum.Attempted == 0 || sum.Failed != 0 || len(sum.Metrics) != len(defs) {
					t.Fatalf("summary %+v", sum)
				}
				for _, d := range defs {
					m, ok := sum.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || (trace == "0" && m.Value <= 0) {
						t.Errorf("metric %s = %+v (present %v)", d.Name, m, ok)
					}
				}
			})
		}
	}
}

func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, megbench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, megbench %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name      string
		json, src []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.src) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, megbench %d", c.name, len(c.json), len(c.src))
			continue
		}
		for i, src := range c.src {
			j := c.json[i]
			// BENCHMARK.json's bound also holds the host's spread: it may
			// be wider than -compare's, never narrower.
			if j.Name != src.Name || j.Unit != src.Unit || j.Better != src.Better || j.Bound < src.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, megbench %+v", c.name, i, j, src)
			}
		}
	}
}

// useTestPaths points a run at the pinned digests, which the tests
// reach from the package directory, and writes its files into a
// temporary directory.
func useTestPaths(t *testing.T) {
	d, o := digestsPath, outDir
	digestsPath, outDir = filepath.Join("..", "testdata", "digests.json"), t.TempDir()
	t.Cleanup(func() { digestsPath, outDir = d, o })
}

func TestUnknownWorkloadFails(t *testing.T) {
	useTestPaths(t)
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-workload", "nope"}, &stdout, &stderr, time.Now()); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

func TestCompareRefusesUnlikeGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	logAt := func(name string, procs int, fps float64) string {
		r := &result{Workload: "batch-cold", Env: env{GOMAXPROCS: procs},
			Metrics: map[string]value{"frames_per_s": {fps, "frames/s"}}}
		path := filepath.Join(dir, name)
		if err := appendResult(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, fast, slow, other := logAt("base", 2, 100), logAt("fast", 2, 104), logAt("slow", 2, 60), logAt("other", 4, 100)
	var out bytes.Buffer
	if code := compareMain([]string{base, other}, &out, &out); code != 2 {
		t.Errorf("GOMAXPROCS 2 against 4: exit %d, want 2 (refused)\n%s", code, out.String())
	}
	if code := compareMain([]string{base, fast}, &out, &out); code != 0 {
		t.Errorf("within the bound: exit %d\n%s", code, out.String())
	}
	if code := compareMain([]string{base, slow}, &out, &out); code != 1 {
		t.Errorf("frames_per_s 40%% lower: exit %d, want 1\n%s", code, out.String())
	}
}

func TestDigestCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.json")
	o := options{workload: "batch-cold", seed: defaultSeed, update: true}
	if err := checkDigest(path, o, &result{Digest: "sha256:aa"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(raw), `"batch-cold": "sha256:aa"`) {
		t.Fatalf("pinned file %q (%v)", raw, err)
	}
	o.update = false
	good, bad := &result{Digest: "sha256:aa"}, &result{Digest: "sha256:bb"}
	if err := checkDigest(path, o, good); err != nil || good.Failed != 0 {
		t.Errorf("matching digest: err %v failed %d", err, good.Failed)
	}
	if err := checkDigest(path, o, bad); err != nil || bad.Failed != 1 || bad.Attempted != 1 {
		t.Errorf("differing digest: err %v attempted %d failed %d", err, bad.Attempted, bad.Failed)
	}
	o.workload = "stream-long"
	if missing := (&result{Digest: "sha256:aa"}); checkDigest(path, o, missing) != nil || missing.Failed != 1 {
		t.Error("a workload without a pinned digest must fail")
	}
	o.seed = 7
	if other := (&result{Digest: "sha256:cc"}); checkDigest(path, o, other) != nil || other.Failed != 0 {
		t.Error("a seed without pinned digests must not be checked")
	}
}

// TestExactMetricsPairBySeed checks that -compare judges a metric that
// is exact for one seed only between runs of the same seed.
func TestExactMetricsPairBySeed(t *testing.T) {
	run := func(seed uint64, reduction float64) *result {
		return &result{Workload: "batch-cold", Seed: seed, Metrics: map[string]value{"reduction_x": {reduction, "x"}}}
	}
	base := []*result{run(1, 40), run(2, 50)}
	var out bytes.Buffer
	if n := compareSets(&out, base, []*result{run(3, 30)}); n != 0 || !strings.Contains(out.String(), "not compared") {
		t.Errorf("another seed's lower reduction_x: %d regressions\n%s", n, out.String())
	}
	if n := compareSets(&out, base, []*result{run(1, 40), run(2, 50)}); n != 0 {
		t.Errorf("identical runs: %d regressions\n%s", n, out.String())
	}
	if n := compareSets(&out, base, []*result{run(1, 40), run(2, 49.5)}); n != 1 {
		t.Errorf("seed 2's reduction_x fell: %d regressions, want 1\n%s", n, out.String())
	}
}

// TestSetupFloor checks that setup_s is gated, and its spread judged, by
// the larger of its bound and its 0.05 s floor.
func TestSetupFloor(t *testing.T) {
	var setup metricDef
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			setup = d
		}
	}
	runs := func(xs ...float64) []*result {
		var rs []*result
		for _, x := range xs {
			rs = append(rs, &result{Workload: "batch-cold", Metrics: map[string]value{"setup_s": {x, "s"}}})
		}
		return rs
	}
	// 20 ms set-ups that wander by 10 ms: a spread of half the median,
	// but within the floor.
	base := runs(0.015, 0.020, 0.025, 0.020, 0.030, 0.015)
	if xs := valuesOf(base, "setup_s"); spread(xs) <= setup.Bound || tooWide(setup, xs) {
		t.Fatalf("spread %.2f: want wider than the bound, within the floor", spread(xs))
	}
	var out bytes.Buffer
	if n := compareSets(&out, base, runs(0.060, 0.065, 0.062)); n != 0 {
		t.Errorf("+0.04 s counted as a regression\n%s", out.String())
	}
	if n := compareSets(&out, base, runs(0.080, 0.085, 0.082)); n != 1 {
		t.Errorf("+0.06 s not counted as a regression\n%s", out.String())
	}
	if !tooWide(setup, valuesOf(runs(0.1, 0.2, 0.3, 0.4), "setup_s")) {
		t.Error("a 0.25 s quartile distance is within the floor")
	}
}
