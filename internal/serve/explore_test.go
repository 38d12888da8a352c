package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/megsim"
)

// sweepRequest is one campaign of a design-space sweep at test scale:
// a RandomProfile workload under a GPU preset and threshold.
func sweepRequest(wl uint64, preset string, threshold float64, seed uint64) CampaignRequest {
	sc := workload.TestScale
	return CampaignRequest{
		Workload:  WorkloadSpec{RandomSeed: &wl, Width: sc.Width, Height: sc.Height, FrameDiv: sc.FrameDivisor, DetailDiv: sc.DetailDivisor},
		Threshold: threshold,
		Seed:      seed,
		GPU:       GPUSpec{Preset: preset},
	}
}

// requestBody renders a request as a submission document.
func requestBody(t *testing.T, req CampaignRequest) string {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// localReport runs req in-process through megsim.SampleResilient — no
// cache anywhere — and renders the normalized report the service must
// reproduce byte for byte.
func localReport(t *testing.T, req CampaignRequest) []byte {
	t.Helper()
	tr, err := req.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := req.GPUConfig()
	if err != nil {
		t.Fatal(err)
	}
	rrun, err := megsim.SampleResilient(context.Background(), tr, req.MegsimConfig(), gpu, req.resilienceConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := marshalReport(NewCampaignReport(rrun, 0))
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalizeReport(raw, false)
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

// TestExplorationMemoSweepSeed: one seed of the sweep-cluster design
// space — 4 workloads × 4 GPU presets × 3 thresholds — explores each
// workload once: 4 select misses, 44 hits. Every report is byte for
// byte the report of an uncached local run.
func TestExplorationMemoSweepSeed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCapacity: 64})
	workloads := []uint64{33, 35, 3, 6}
	presets := []string{"mali450", "lowend", "highend", "tbdr"}
	thresholds := []float64{0.80, 0.85, 0.90}
	const seed = 7

	var reqs []CampaignRequest
	for _, th := range thresholds {
		for _, preset := range presets {
			for _, wl := range workloads {
				reqs = append(reqs, sweepRequest(wl, preset, th, seed))
			}
		}
	}
	subs := make([]SubmitResponse, len(reqs))
	for i, req := range reqs {
		subs[i] = submitOK(t, ts, requestBody(t, req))
	}
	for i, sub := range subs {
		if st := waitTerminal(t, ts, sub.JobID); st.State != JobSucceeded {
			t.Fatalf("campaign %d ended %s: %s", i, st.State, st.Error)
		}
	}
	if miss, hit := counter(s, "serve.cache.select.miss"), counter(s, "serve.cache.select.hit"); miss != 4 || hit != 44 {
		t.Fatalf("select cache: %d misses, %d hits; want 4 and 44", miss, hit)
	}
	for i, sub := range subs {
		_, raw := getJSON(t, ts, "/api/v1/jobs/"+sub.JobID+"/result")
		got, err := normalizeReport(raw, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := localReport(t, reqs[i]); !bytes.Equal(got, want) {
			t.Fatalf("campaign %d (workload %d, %s, T=%v) differs from the local run:\n--- service ---\n%s\n--- local ---\n%s",
				i, *reqs[i].Workload.RandomSeed, reqs[i].GPU.Preset, reqs[i].Threshold, got, want)
		}
	}
}

// TestExplorationMemoConcurrentBuildOnce: campaigns that share one
// exploration key and arrive together (different thresholds, so
// different jobs) run the search once; everyone else joins it.
func TestExplorationMemoConcurrentBuildOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueCapacity: 16})
	thresholds := []float64{0.70, 0.80, 0.85, 0.90, 0.95, 1}
	subs := make([]SubmitResponse, len(thresholds))
	errs := make([]error, len(thresholds))
	var wg sync.WaitGroup
	for i, th := range thresholds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := json.Marshal(sweepRequest(3, "mali450", th, 11))
			if err == nil {
				subs[i], err = trySubmit(ts, string(raw))
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, ts, subs[i].JobID); st.State != JobSucceeded {
			t.Fatalf("campaign %d ended %s: %s", i, st.State, st.Error)
		}
	}
	miss, hit := counter(s, "serve.cache.select.miss"), counter(s, "serve.cache.select.hit")
	if miss != 1 || hit != uint64(len(thresholds)-1) {
		t.Fatalf("select cache: %d misses, %d hits; want 1 and %d", miss, hit, len(thresholds)-1)
	}
}

// TestExplorationMemoIsolation: a campaign that quarantines a
// representative degrades its selection; a clean campaign on the same
// exploration key afterwards must still get exactly the uncached
// report — the degraded campaign changed nothing it shares.
func TestExplorationMemoIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	clean := sweepRequest(35, "lowend", 0.85, 5)
	want := localReport(t, clean)
	var rep CampaignReport
	if err := json.Unmarshal(want, &rep); err != nil {
		t.Fatal(err)
	}

	degraded := clean
	degraded.Resilience.Quarantine = []int{rep.Representatives[0]}
	sub := submitOK(t, ts, requestBody(t, degraded))
	if st := waitTerminal(t, ts, sub.JobID); st.State != JobSucceeded || !st.Degraded {
		t.Fatalf("quarantined campaign ended %s (degraded %v): %s", st.State, st.Degraded, st.Error)
	}

	sub = submitOK(t, ts, requestBody(t, clean))
	if st := waitTerminal(t, ts, sub.JobID); st.State != JobSucceeded {
		t.Fatalf("clean campaign ended %s: %s", st.State, st.Error)
	}
	if hit := counter(s, "serve.cache.select.hit"); hit != 1 {
		t.Fatalf("clean campaign did not reuse the exploration (select hits %d)", hit)
	}
	_, raw := getJSON(t, ts, "/api/v1/jobs/"+sub.JobID+"/result")
	got, err := normalizeReport(raw, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("clean campaign after a degraded one differs from the local run:\n--- service ---\n%s\n--- local ---\n%s", got, want)
	}
}

// TestExploreKeyIgnoresThresholdAndGPU: the exploration key changes
// with everything the search reads and with nothing else.
func TestExploreKeyIgnoresThresholdAndGPU(t *testing.T) {
	base := sweepRequest(3, "mali450", 0.85, 1)
	same := []CampaignRequest{base}
	other := base
	other.Threshold = 0.5
	other.GPU = GPUSpec{Preset: "tbdr", TBDR: true}
	same = append(same, other)
	for i, req := range same {
		if req.exploreKey() != base.exploreKey() {
			t.Errorf("variant %d: key changed with threshold/GPU settings", i)
		}
	}
	seed := base
	seed.Seed = 2
	wl := sweepRequest(4, "mali450", 0.85, 1)
	for name, req := range map[string]CampaignRequest{"seed": seed, "workload": wl} {
		if req.exploreKey() == base.exploreKey() {
			t.Errorf("key ignores the %s", name)
		}
	}
	if def := sweepRequest(3, "mali450", 0.85, 0); def.exploreKey() != base.exploreKey() {
		t.Error("seed 0 (the default) and the default seed got different keys")
	}
}
