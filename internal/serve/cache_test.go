package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gltrace"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/megsim"
)

func testCache() *Cache {
	return NewCache(obs.NewWith(obs.Options{TraceCapacity: -1}), 0)
}

func TestCacheSingleflight(t *testing.T) {
	c := testCache()
	ctx := context.Background()

	var builds atomic.Int64
	gate := make(chan struct{})
	build := func() (*gltrace.Trace, error) {
		builds.Add(1)
		<-gate // hold every concurrent caller in one flight
		return &gltrace.Trace{Name: "shared"}, nil
	}

	const N = 8
	results := make([]*gltrace.Trace, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := c.Trace(ctx, "k", build)
			if err != nil {
				t.Errorf("Trace: %v", err)
			}
			results[i] = tr
		}(i)
	}
	// Wait for the flight to start, then release the builder. Late
	// joiners that arrive after completion get plain map hits — either
	// way the builder must have run exactly once.
	for builds.Load() == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("builder ran %d times, want 1", got)
	}
	for i := 1; i < N; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers got different values")
		}
	}
	snap := c.traceHit.Value() + c.traceMiss.Value()
	if snap != N || c.traceMiss.Value() != 1 {
		t.Fatalf("hit/miss accounting: hit=%d miss=%d, want %d/1", c.traceHit.Value(), c.traceMiss.Value(), N-1)
	}

	// Now a plain map hit.
	if _, err := c.Trace(ctx, "k", func() (*gltrace.Trace, error) {
		t.Fatal("builder ran on a cached key")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := testCache()
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	build := func() (*gltrace.Trace, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return &gltrace.Trace{Name: "ok"}, nil
	}
	if _, err := c.Trace(ctx, "k", build); !errors.Is(err, boom) {
		t.Fatalf("first call: err = %v, want boom", err)
	}
	tr, err := c.Trace(ctx, "k", build)
	if err != nil || tr.Name != "ok" {
		t.Fatalf("retry after error: %v %v", tr, err)
	}
	if calls != 2 {
		t.Fatalf("builder ran %d times, want 2 (errors must not cache)", calls)
	}
}

func TestCacheJoinerRespectsContext(t *testing.T) {
	c := testCache()
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Trace(context.Background(), "k", func() (*gltrace.Trace, error) {
			close(started)
			<-gate
			return &gltrace.Trace{Name: "slow"}, nil
		})
	}()
	<-started

	// A second job joining the flight is cancelled: it must unblock with
	// its own context error, not wait for the other job's build.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Trace(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled joiner: err = %v, want context.Canceled", err)
	}
	close(gate)
}

func TestFifoMapEviction(t *testing.T) {
	m := newFifoMap[int](2)
	m.put("a", 1)
	m.put("b", 2)
	m.put("a", 10) // overwrite must not count as a new entry
	if m.len() != 2 {
		t.Fatalf("len = %d, want 2", m.len())
	}
	m.put("c", 3)
	if m.len() != 2 {
		t.Fatalf("len after eviction = %d, want 2", m.len())
	}
	if _, ok := m.get("a"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if v, ok := m.get("c"); !ok || v != 3 {
		t.Fatal("newest entry missing")
	}
	if v, ok := m.get("b"); !ok || v != 2 {
		t.Fatal("middle entry missing")
	}
}

func TestCacheFrameLayerBounded(t *testing.T) {
	reg := obs.NewWith(obs.Options{TraceCapacity: -1})
	c := NewCache(reg, 4)
	fn := c.frameRunner("wl", "fp", func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		return tbr.FrameStats{}, nil
	})
	ctx := context.Background()
	for f := 0; f < 10; f++ {
		if _, err := fn(ctx, f, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.frames.len(); got != 4 {
		t.Fatalf("frame cache holds %d entries, want bound 4", got)
	}
	if c.frameMiss.Value() != 10 {
		t.Fatalf("misses = %d, want 10", c.frameMiss.Value())
	}
	// Re-running the newest frame hits; the evicted oldest misses again.
	if _, err := fn(ctx, 9, nil); err != nil {
		t.Fatal(err)
	}
	if c.frameHit.Value() != 1 {
		t.Fatalf("hits = %d, want 1", c.frameHit.Value())
	}
	if _, err := fn(ctx, 0, nil); err != nil {
		t.Fatal(err)
	}
	if c.frameMiss.Value() != 11 {
		t.Fatalf("misses = %d, want 11 after eviction", c.frameMiss.Value())
	}
}

// Ensure distinct workload keys or run fingerprints never share frame
// entries.
func TestCacheFrameKeyIncludesFingerprint(t *testing.T) {
	c := testCache()
	runs := map[string]int{}
	mk := func(run string) func(context.Context, int, *obs.Registry) (tbr.FrameStats, error) {
		return func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
			runs[fmt.Sprintf("%s#%d", run, frame)]++
			return tbr.FrameStats{}, nil
		}
	}
	ctx := context.Background()
	a := c.frameRunner("wlA", "fpA", mk("A"))
	b := c.frameRunner("wlA", "fpB", mk("B"))
	d := c.frameRunner("wlB", "fpA", mk("D"))
	a(ctx, 1, nil)
	b(ctx, 1, nil)
	d(ctx, 1, nil)
	a(ctx, 1, nil)
	if runs["A#1"] != 1 || runs["B#1"] != 1 || runs["D#1"] != 1 {
		t.Fatalf("frame cache crossed runs: %v", runs)
	}
}

// TestCacheRunnerLayerBounded: more run fingerprints than the bound
// leave at most maxRunners runners cached, and an evicted
// runner is rebuilt on its next use with identical results.
func TestCacheRunnerLayerBounded(t *testing.T) {
	c := testCache()
	tr := megsim.MustGenerateBenchmark("hcr", harness.TestOptions().Scale)
	var gpus []tbr.Config
	for _, name := range []string{"mali450", "lowend", "highend", "tbdr"} {
		for _, tile := range []int{32, 16} {
			g, err := tbr.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			g.TileSize = tile
			gpus = append(gpus, g)
		}
	}
	ctx := context.Background()
	run := func(g tbr.Config) tbr.FrameStats {
		t.Helper()
		st, err := c.Runner("wl", megsim.RunFingerprint(tr, g), tr, g)(ctx, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first := run(gpus[0])
	for _, g := range gpus[1:] {
		run(g)
	}
	if got := c.runners.len(); got != maxRunners {
		t.Fatalf("runner layer holds %d entries, want bound %d", got, maxRunners)
	}
	if c.runnerMiss.Value() != uint64(len(gpus)) || c.runnerHit.Value() != 0 {
		t.Fatalf("hit/miss = %d/%d, want 0/%d", c.runnerHit.Value(), c.runnerMiss.Value(), len(gpus))
	}
	run(gpus[len(gpus)-1])
	if c.runnerHit.Value() != 1 {
		t.Fatalf("newest runner missed: hits = %d", c.runnerHit.Value())
	}
	if again := run(gpus[0]); again != first {
		t.Fatalf("rebuilt runner differs:\n got %+v\nwant %+v", again, first)
	}
	if c.runnerMiss.Value() != uint64(len(gpus))+1 {
		t.Fatalf("evicted runner was not rebuilt: misses = %d", c.runnerMiss.Value())
	}
}

// viewportRequests are two hcr campaigns that differ only in width.
// Their traces share a name and a frame count, so they share a run
// fingerprint and are told apart only by the workload key.
func viewportRequests() []CampaignRequest {
	sc := harness.TestOptions().Scale
	var reqs []CampaignRequest
	for _, w := range []int{sc.Width, 2 * sc.Width} {
		reqs = append(reqs, CampaignRequest{
			Workload: WorkloadSpec{Benchmark: "hcr", Width: w, Height: sc.Height, FrameDiv: sc.FrameDivisor, DetailDiv: sc.DetailDivisor},
		})
	}
	return reqs
}

// viewportRun builds req's trace, GPU config and run key.
func viewportRun(t *testing.T, req CampaignRequest) (*megsim.Trace, tbr.Config, string, string) {
	t.Helper()
	tr, err := req.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := req.GPUConfig()
	if err != nil {
		t.Fatal(err)
	}
	return tr, gpu, req.WorkloadKey(), megsim.RunFingerprint(tr, gpu)
}

// TestCacheRunnerKeyIncludesWorkload: runners of two traces with one
// run fingerprint stay apart, and each simulates its own trace.
func TestCacheRunnerKeyIncludesWorkload(t *testing.T) {
	c := testCache()
	reqs := viewportRequests()
	ctx := context.Background()
	var fps []string
	for _, req := range reqs {
		tr, gpu, wkey, fp := viewportRun(t, req)
		fps = append(fps, fp)
		for _, f := range []int{1, 2} {
			got, err := c.Runner(wkey, fp, tr, gpu)(ctx, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := megsim.FrameRunner(tr, gpu)(ctx, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("width %d frame %d: cached runner differs from a fresh one:\n got %+v\nwant %+v", req.Workload.Width, f, got, want)
			}
		}
	}
	if fps[0] != fps[1] {
		t.Fatalf("run fingerprints differ (%s, %s); the test needs them equal", fps[0], fps[1])
	}
	if hit, miss := c.runnerHit.Value(), c.runnerMiss.Value(); hit != 2 || miss != 2 {
		t.Fatalf("runner hit/miss = %d/%d, want 2/2", hit, miss)
	}
}

// TestServerCampaignsDifferingInViewport: the daemon runs two campaigns
// whose traces share a run fingerprint, with overlapping
// representatives, and each report is the report of an uncached local
// run. The daemon's /metrics shows the runner layer's counters, which
// stay zero there: the daemon builds one frame runner per job.
func TestServerCampaignsDifferingInViewport(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	seen := map[int]bool{}
	overlap := false
	for _, req := range viewportRequests() {
		want := localReport(t, req)
		var rep CampaignReport
		if err := json.Unmarshal(want, &rep); err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Representatives {
			overlap = overlap || seen[r]
			seen[r] = true
		}
		sub := submitOK(t, ts, requestBody(t, req))
		if st := waitTerminal(t, ts, sub.JobID); st.State != JobSucceeded {
			t.Fatalf("width %d campaign ended %s: %s", req.Workload.Width, st.State, st.Error)
		}
		_, raw := getJSON(t, ts, "/api/v1/jobs/"+sub.JobID+"/result")
		got, err := normalizeReport(raw, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("width %d campaign differs from the local run:\n--- service ---\n%s\n--- local ---\n%s", req.Workload.Width, got, want)
		}
	}
	if !overlap {
		t.Fatal("the two campaigns share no representative; the test cannot see a cache collision")
	}
	if hit := counter(s, "serve.cache.frame.hit"); hit != 0 {
		t.Fatalf("frame cache served %d frames across workloads", hit)
	}
	_, metrics := getJSON(t, ts, "/metrics")
	for _, want := range []string{"serve_cache_runner_hit 0", "serve_cache_runner_miss 0"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
