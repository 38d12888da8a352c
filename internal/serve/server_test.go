package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/resilience"
	"repro/internal/workload"
	"repro/megsim"
)

// serviceResilience is the supervisor half of the service settings:
// resilience on (one retry per frame) with backoff disabled, so tests
// exercise the supervised path without sleeping on injected faults.
func serviceResilience() resilience.Config {
	return resilience.Config{MaxAttempts: 2, BackoffBase: -1}
}

// serviceCampaignBody is the canonical test campaign: the service
// settings (the harness.TestOptions workload, resilience on) as a
// submission document. The cache-identity tests compare daemon
// responses against a direct megsim run under exactly these settings,
// and the fabric tests' campaign must stay identical to it. extra is
// spliced into the resilience object.
func serviceCampaignBody(extraResilience string) string {
	sc := harness.TestOptions().Scale
	return fmt.Sprintf(
		`{"workload":{"benchmark":"hcr","width":%d,"height":%d,"frame_div":%d,"detail_div":%d},`+
			`"resilience":{"retries":%d%s}}`,
		sc.Width, sc.Height, sc.FrameDivisor, sc.DetailDivisor,
		serviceResilience().MaxAttempts, extraResilience)
}

// streamCampaignBody is the canonical campaign in streaming mode, with
// a small stratum budget so the test workload settles into several
// strata.
func streamCampaignBody(extraResilience string) string {
	return strings.TrimSuffix(serviceCampaignBody(extraResilience), "}") +
		`,"stream":{"max_strata":8,"reservoir_cap":4}}`
}

// directGolden runs the canonical campaign once, directly through
// megsim.SampleResilient (batch) or megsim.SampleStreaming (stream)
// under the same service settings — the ground truth every service
// response must match byte-for-byte (modulo wall clock). Each is
// computed once and shared across tests.
var (
	goldenOnce, streamGoldenOnce sync.Once
	goldenBytes, streamGolden    []byte
	goldenErr, streamGoldenErr   error
)

func directGolden(t *testing.T) []byte {
	t.Helper()
	goldenOnce.Do(func() {
		goldenBytes, goldenErr = runDirect(func(tr *megsim.Trace, gpu megsim.GPUConfig) (*CampaignReport, error) {
			rrun, err := megsim.SampleResilient(context.Background(), tr,
				megsim.DefaultConfig(), gpu, serviceResilience())
			if err != nil {
				return nil, err
			}
			return NewCampaignReport(rrun, 0), nil
		})
	})
	if goldenErr != nil {
		t.Fatalf("direct golden run: %v", goldenErr)
	}
	return goldenBytes
}

func directStreamGolden(t *testing.T) []byte {
	t.Helper()
	streamGoldenOnce.Do(func() {
		streamGolden, streamGoldenErr = runDirect(func(tr *megsim.Trace, gpu megsim.GPUConfig) (*CampaignReport, error) {
			scfg := megsim.DefaultStreamConfig()
			scfg.Seed = megsim.DefaultConfig().Seed
			scfg.MaxStrata, scfg.ReservoirCap = 8, 4
			opts := megsim.StreamingOptions{Stream: scfg, Resilience: serviceResilience()}
			srun, err := megsim.SampleStreaming(context.Background(), tr, opts, gpu)
			if err != nil {
				return nil, err
			}
			return NewStreamingCampaignReport(srun, 0), nil
		})
	})
	if streamGoldenErr != nil {
		t.Fatalf("direct streaming golden run: %v", streamGoldenErr)
	}
	return streamGolden
}

// runDirect generates the service settings' workload and renders the
// report of one in-process sampling run over it.
func runDirect(sample func(*megsim.Trace, megsim.GPUConfig) (*CampaignReport, error)) ([]byte, error) {
	p, err := workload.Get("hcr")
	if err != nil {
		return nil, err
	}
	tr, err := workload.Generate(p, harness.TestOptions().Scale)
	if err != nil {
		return nil, err
	}
	rep, err := sample(tr, megsim.DefaultGPUConfig())
	if err != nil {
		return nil, err
	}
	raw, err := marshalReport(rep)
	if err != nil {
		return nil, err
	}
	return normalizeReport(raw, false)
}

// normalizeReport re-renders a report with the wall-clock field zeroed
// (and, for resumed runs, the resume accounting cleared) so executions
// of the same campaign compare byte-for-byte.
func normalizeReport(raw []byte, clearResume bool) ([]byte, error) {
	var r CampaignReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("normalize report: %w", err)
	}
	r.SampledMillis = 0
	if clearResume && r.Resilience != nil {
		r.Resilience.Resumed = nil
	}
	return marshalReport(&r)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// post is the goroutine-safe HTTP helper (no *testing.T): concurrent
// submission tests collect errors and assert on the main goroutine.
func post(ts *httptest.Server, body string) (*http.Response, []byte, error) {
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp, raw, err
}

func postCampaign(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, raw, err := post(ts, body)
	if err != nil {
		t.Fatalf("POST campaign: %v", err)
	}
	return resp, raw
}

func trySubmit(ts *httptest.Server, body string) (SubmitResponse, error) {
	resp, raw, err := post(ts, body)
	if err != nil {
		return SubmitResponse{}, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return SubmitResponse{}, fmt.Errorf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		return SubmitResponse{}, fmt.Errorf("decode submit response: %w", err)
	}
	return sub, nil
}

func submitOK(t *testing.T, ts *httptest.Server, body string) SubmitResponse {
	t.Helper()
	sub, err := trySubmit(ts, body)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func getJSON(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, raw
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, raw := getJSON(t, ts, "/api/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, code, raw)
		}
		var st JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func counter(s *Server, name string) uint64 {
	return s.Registry().Snapshot().Counters[name]
}

// TestCampaignCacheIdentity is the service's golden contract, for a
// batch and a streaming campaign: N concurrent identical submissions
// (across watchdog timeouts, which never enter the fingerprint) run
// ONE simulation, every poller reads byte-identical bytes, and those
// bytes match a direct in-process run of the same campaign.
func TestCampaignCacheIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCapacity: 16})
	batchID, r1 := requireOneJob(t, s, ts, serviceCampaignBody, directGolden(t))
	requireOneJob(t, s, ts, streamCampaignBody, directStreamGolden(t))
	if got := counter(s, "serve.jobs.completed"); got != 2 {
		t.Fatalf("serve.jobs.completed = %d, want 2", got)
	}

	// Second campaign, distinct fingerprint (pre-quarantines one
	// NON-representative frame): the selection is unchanged, so every
	// representative must come from the frame cache — a new job, zero
	// new simulation, identical estimates.
	var rep CampaignReport
	if err := json.Unmarshal(r1, &rep); err != nil {
		t.Fatal(err)
	}
	isRep := map[int]bool{}
	for _, f := range rep.Representatives {
		isRep[f] = true
	}
	nonRep := -1
	for f := 0; f < rep.Frames; f++ {
		if !isRep[f] {
			nonRep = f
			break
		}
	}
	if nonRep < 0 {
		t.Skip("every frame is a representative at this scale")
	}
	frameMissBefore := counter(s, "serve.cache.frame.miss")
	sub2 := submitOK(t, ts, serviceCampaignBody(fmt.Sprintf(`,"quarantine":[%d]`, nonRep)))
	if sub2.Deduped || sub2.JobID == batchID {
		t.Fatalf("distinct campaign was deduped: %+v", sub2)
	}
	st2 := waitTerminal(t, ts, sub2.JobID)
	if st2.State != JobSucceeded {
		t.Fatalf("second campaign ended %s: %s", st2.State, st2.Error)
	}
	_, raw2 := getJSON(t, ts, "/api/v1/jobs/"+sub2.JobID+"/result")
	var rep2 CampaignReport
	if err := json.Unmarshal(raw2, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Cycles != rep.Cycles || rep2.DRAMAccesses != rep.DRAMAccesses {
		t.Fatalf("quarantining a non-representative changed the estimate: %d vs %d cycles", rep2.Cycles, rep.Cycles)
	}
	if rep2.Resilience == nil || len(rep2.Resilience.Quarantined) != 1 {
		t.Fatalf("pre-quarantine not reported: %+v", rep2.Resilience)
	}
	if got := counter(s, "serve.cache.frame.hit"); got < uint64(len(rep.Representatives)) {
		t.Fatalf("frame cache hits = %d, want >= %d (all representatives shared)", got, len(rep.Representatives))
	}
	if got := counter(s, "serve.cache.frame.miss"); got != frameMissBefore {
		t.Fatalf("second campaign re-simulated %d frames; all were cached", got-frameMissBefore)
	}
	if got := counter(s, "serve.cache.char.hit"); got < 1 {
		t.Fatal("characterization was recomputed for a cached workload")
	}
	if got := counter(s, "serve.cache.trace.hit"); got < 1 {
		t.Fatal("trace was regenerated for a cached workload")
	}

	// Third campaign: quarantine a REPRESENTATIVE — the service must
	// degrade gracefully (substitute or lost cluster), succeed, and flag
	// the job as degraded everywhere.
	subDeg := submitOK(t, ts, serviceCampaignBody(fmt.Sprintf(`,"quarantine":[%d]`, rep.Representatives[0])))
	stDeg := waitTerminal(t, ts, subDeg.JobID)
	if stDeg.State != JobSucceeded {
		t.Fatalf("degraded campaign ended %s: %s", stDeg.State, stDeg.Error)
	}
	if !stDeg.Degraded {
		t.Fatal("degraded campaign not flagged in job status")
	}
	_, rawDeg := getJSON(t, ts, "/api/v1/jobs/"+subDeg.JobID+"/result")
	var repDeg CampaignReport
	if err := json.Unmarshal(rawDeg, &repDeg); err != nil {
		t.Fatal(err)
	}
	if repDeg.Resilience == nil || !repDeg.Resilience.Degraded {
		t.Fatalf("degradation not reported: %+v", repDeg.Resilience)
	}
	if len(repDeg.Resilience.Substitutions) == 0 && len(repDeg.Resilience.LostClusters) == 0 {
		t.Fatalf("degraded run reports neither substitution nor loss: %+v", repDeg.Resilience)
	}
	if got := counter(s, "serve.jobs.degraded"); got != 1 {
		t.Fatalf("serve.jobs.degraded = %d, want 1", got)
	}

	// /metrics reflects all of it in Prometheus text format.
	code, metrics := getJSON(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{
		"# TYPE serve_jobs_executed counter",
		"serve_jobs_executed 4",
		"serve_cache_char_hit",
		"megsimd_queue_depth 0",
		"megsimd_inflight_jobs 0",
		"megsimd_draining 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// watchdog returns a resilience extra arming the stall watchdog at n
// minutes: long enough never to fire on a test frame.
func watchdog(n int) string {
	return fmt.Sprintf(`,"stall_timeout_ms":%d`, n*60000)
}

// requireOneJob submits N concurrent copies of the campaign body(extra)
// for three stall-watchdog timeouts (an execution-shaping knob, so one
// campaign fingerprint), asserts they attach to one job that
// runs one simulation and succeeds, that a late resubmission dedups
// onto it, and that its result equals want modulo the wall-clock
// field. It returns the job's ID and result bytes.
func requireOneJob(t *testing.T, s *Server, ts *httptest.Server, body func(extraResilience string) string, want []byte) (string, []byte) {
	t.Helper()
	const N = 6
	executed, deduped := counter(s, "serve.jobs.executed"), counter(s, "serve.jobs.deduped")
	subs := make([]SubmitResponse, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			subs[i], errs[i] = trySubmit(ts, body(watchdog(1+i%3)))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	fresh := 0
	for _, sub := range subs {
		if !sub.Deduped {
			fresh++
		}
		if sub.JobID != subs[0].JobID {
			t.Fatalf("identical submissions got different jobs: %s vs %s", sub.JobID, subs[0].JobID)
		}
	}
	if fresh != 1 {
		t.Fatalf("%d fresh admissions for %d identical submissions, want exactly 1", fresh, N)
	}

	st := waitTerminal(t, ts, subs[0].JobID)
	if st.State != JobSucceeded {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	resultPath := "/api/v1/jobs/" + subs[0].JobID + "/result"
	code, r1 := getJSON(t, ts, resultPath)
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, r1)
	}
	_, r2 := getJSON(t, ts, resultPath)
	if !bytes.Equal(r1, r2) {
		t.Fatal("two reads of the same result differ")
	}

	// Resubmitting after completion is a pure cache hit on the same job.
	late := submitOK(t, ts, body(watchdog(2)))
	if !late.Deduped || late.JobID != subs[0].JobID {
		t.Fatalf("post-completion resubmission not deduped: %+v", late)
	}
	_, r3 := getJSON(t, ts, resultPath)
	if !bytes.Equal(r1, r3) {
		t.Fatal("result changed after resubmission")
	}

	// Byte-identical to the direct run, modulo the wall-clock field.
	norm, err := normalizeReport(r1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(norm, want) {
		t.Fatalf("service result differs from direct run:\n--- service ---\n%s\n--- direct ---\n%s", norm, want)
	}

	if got := counter(s, "serve.jobs.executed") - executed; got != 1 {
		t.Fatalf("serve.jobs.executed rose by %d, want 1 (one simulation for %d submissions)", got, N+1)
	}
	if got := counter(s, "serve.jobs.deduped") - deduped; got != N {
		t.Fatalf("serve.jobs.deduped rose by %d, want %d", got, N)
	}
	return subs[0].JobID, r1
}

// TestBackpressure: with capacity K and no workers, K+M concurrent
// submissions admit exactly K and reject exactly M with 429+Retry-After;
// rejected jobs leave no trace. Drain then interrupts the queued jobs
// and flips admission to 503.
func TestBackpressure(t *testing.T) {
	const K, M = 3, 2
	s := New(Config{Workers: -1, QueueCapacity: K})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type outcome struct {
		status     int
		retryAfter string
		body       string
		err        error
	}
	outcomes := make([]outcome, K+M)
	var wg sync.WaitGroup
	for i := 0; i < K+M; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds → distinct fingerprints → no dedup.
			body := fmt.Sprintf(`{"workload":{"random_seed":%d}}`, i+1)
			resp, raw, err := post(ts, body)
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			outcomes[i] = outcome{resp.StatusCode, resp.Header.Get("Retry-After"), string(raw), nil}
		}(i)
	}
	wg.Wait()

	admitted, rejected := 0, 0
	for _, o := range outcomes {
		if o.err != nil {
			t.Fatal(o.err)
		}
		switch o.status {
		case http.StatusAccepted:
			admitted++
		case http.StatusTooManyRequests:
			rejected++
			if o.retryAfter == "" {
				t.Error("429 without Retry-After header")
			}
			if !strings.Contains(o.body, "queue full") {
				t.Errorf("429 body does not explain: %s", o.body)
			}
		default:
			t.Errorf("unexpected status %d: %s", o.status, o.body)
		}
	}
	if admitted != K || rejected != M {
		t.Fatalf("admitted %d / rejected %d, want %d / %d", admitted, rejected, K, M)
	}
	if got := counter(s, "serve.jobs.rejected"); got != M {
		t.Fatalf("serve.jobs.rejected = %d, want %d", got, M)
	}

	// Rejected submissions must not leave phantom jobs behind.
	code, raw := getJSON(t, ts, "/api/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var list []JobStatus
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != K {
		t.Fatalf("store holds %d jobs, want %d", len(list), K)
	}
	for _, st := range list {
		if st.State != jobQueued {
			t.Fatalf("job %s is %s, want queued (no workers)", st.ID, st.State)
		}
	}

	// A queued job has no result yet.
	code, raw = getJSON(t, ts, "/api/v1/jobs/"+list[0].ID+"/result")
	if code != http.StatusConflict || !strings.Contains(string(raw), "queued") {
		t.Fatalf("result of queued job: status %d body %s", code, raw)
	}

	// Drain: queued jobs are interrupted, admission answers 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, st := range list {
		after := waitTerminal(t, ts, st.ID)
		if after.State != JobInterrupted || !strings.Contains(after.Error, "drained") {
			t.Fatalf("job %s after drain: %s (%s)", st.ID, after.State, after.Error)
		}
	}
	if got := counter(s, "serve.jobs.interrupted"); got != K {
		t.Fatalf("serve.jobs.interrupted = %d, want %d", got, K)
	}
	resp, raw := postCampaign(t, ts, `{"workload":{"random_seed":99}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d body %s", resp.StatusCode, raw)
	}
	// Streaming campaigns have one route, /api/v1/campaigns with a
	// "stream" spec; no stream session routes exist.
	resp, err := http.Post(ts.URL+"/api/v1/streams", "application/json",
		strings.NewReader(`{"workload":{"benchmark":"hcr"},"stream":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stream session route: status %d, want 404", resp.StatusCode)
	}

	code, raw = getJSON(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(raw), `"draining": true`) {
		t.Fatalf("healthz while draining: %d %s", code, raw)
	}
	_, metrics := getJSON(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "megsimd_draining 1") {
		t.Error("metrics do not report draining")
	}

	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestRetryAfterDerivedFromDepth pins the Retry-After contract: the
// advice is a pure function of (depth, capacity, key), grows with queue
// pressure, and spreads distinct campaigns so synchronized clients do
// not re-stampede in lockstep.
func TestRetryAfterDerivedFromDepth(t *testing.T) {
	const capacity = 64
	// Deterministic: same inputs, same advice.
	for i := 0; i < 3; i++ {
		if a, b := retryAfterSeconds(10, capacity, "cmp-a"), retryAfterSeconds(10, capacity, "cmp-a"); a != b {
			t.Fatalf("retryAfterSeconds not deterministic: %d vs %d", a, b)
		}
	}
	// Monotone (non-decreasing) in depth, and a full queue advises a
	// strictly longer wait than an empty one.
	prev := 0
	for depth := 0; depth <= capacity; depth++ {
		got := retryAfterSeconds(depth, capacity, "cmp-a")
		if got < prev {
			t.Fatalf("retryAfterSeconds(depth=%d) = %d < %d at depth-1", depth, got, prev)
		}
		prev = got
	}
	if empty, full := retryAfterSeconds(0, capacity, "cmp-a"), retryAfterSeconds(capacity, capacity, "cmp-a"); full <= empty {
		t.Fatalf("full queue advice %ds not above empty queue advice %ds", full, empty)
	}
	// Bounded: at least 1s, and jitter adds at most 2s over the base.
	for depth := 0; depth <= capacity; depth++ {
		for _, key := range []string{"", "cmp-a", "cmp-b", "cmp-0123456789abcdef"} {
			got := retryAfterSeconds(depth, capacity, key)
			base := 1 + (4*depth)/capacity
			if got < 1 || got < base || got > base+2 {
				t.Fatalf("retryAfterSeconds(%d, %d, %q) = %d outside [max(1,%d), %d]",
					depth, capacity, key, got, base, base+2)
			}
		}
	}
	// Spread: across many keys the jitter must actually use more than
	// one offset — a constant would re-stampede every rejected client.
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[retryAfterSeconds(5, capacity, "cmp-"+strconv.Itoa(i))] = true
	}
	if len(seen) < 2 {
		t.Fatalf("jitter produced a single value %v across 64 keys", seen)
	}
	// Degenerate inputs must not panic or go below 1.
	if got := retryAfterSeconds(-3, 0, "x"); got < 1 {
		t.Fatalf("degenerate inputs gave %d, want >= 1", got)
	}
}

// TestDrainCheckpointResume: drain a server with jobs in flight and
// queued, restart it on the same checkpoint directory, resubmit the
// identical campaigns, and require byte-identical results (resume
// accounting normalized — a resumed run truthfully reports its resumed
// frames).
func TestDrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	sc := harness.TestOptions().Scale
	bodyA := serviceCampaignBody("")
	bodyB := fmt.Sprintf(
		`{"workload":{"benchmark":"jjo","width":%d,"height":%d,"frame_div":%d,"detail_div":%d},`+
			`"resilience":{"retries":2}}`,
		sc.Width, sc.Height, sc.FrameDivisor, sc.DetailDivisor)

	sA := New(Config{Workers: 1, QueueCapacity: 8, CheckpointDir: dir})
	tsA := httptest.NewServer(sA.Handler())
	subA := submitOK(t, tsA, bodyA)
	subB := submitOK(t, tsA, bodyB) // queued behind A on the single worker

	// Let the worker pick up job A, then drain mid-run. (On a fast
	// machine A may already have finished — both outcomes are legal;
	// the resubmission contract below holds either way.)
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, raw := getJSON(t, tsA, "/api/v1/jobs/"+subA.JobID)
		if code != http.StatusOK {
			t.Fatalf("poll: %d %s", code, raw)
		}
		if !strings.Contains(string(raw), `"queued"`) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := sA.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	stA := waitTerminal(t, tsA, subA.JobID)
	stB := waitTerminal(t, tsA, subB.JobID)
	tsA.Close()
	if stA.State != JobSucceeded && stA.State != JobInterrupted {
		t.Fatalf("job A after drain: %s (%s)", stA.State, stA.Error)
	}
	if stB.State != JobSucceeded && stB.State != JobInterrupted {
		t.Fatalf("job B after drain: %s (%s)", stB.State, stB.Error)
	}

	// Restart on the same checkpoint directory and resubmit both.
	_, tsB := newTestServer(t, Config{Workers: 1, QueueCapacity: 8, CheckpointDir: dir})
	reA := submitOK(t, tsB, bodyA)
	reB := submitOK(t, tsB, bodyB)
	if reA.Fingerprint != subA.Fingerprint || reB.Fingerprint != subB.Fingerprint {
		t.Fatal("resubmission fingerprints changed across restart")
	}
	for _, sub := range []SubmitResponse{reA, reB} {
		if st := waitTerminal(t, tsB, sub.JobID); st.State != JobSucceeded {
			t.Fatalf("resumed job %s ended %s: %s", sub.JobID, st.State, st.Error)
		}
	}
	_, rawA := getJSON(t, tsB, "/api/v1/jobs/"+reA.JobID+"/result")
	normA, err := normalizeReport(rawA, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := directGolden(t); !bytes.Equal(normA, want) {
		t.Fatalf("resumed result differs from direct run:\n--- resumed ---\n%s\n--- direct ---\n%s", normA, want)
	}
}

// TestJobFailure: a campaign that quarantines every frame loses every
// cluster — the estimate is impossible, and the job must settle in
// `failed` (not hang, not panic) with the cause in its status. A later
// identical submission retries instead of deduplicating onto the corpse.
func TestJobFailure(t *testing.T) {
	var log bytes.Buffer
	s, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4, Log: &log})
	if s.draining.Load() {
		t.Fatal("fresh server reports draining")
	}
	quarantine := make([]string, 2000)
	for i := range quarantine {
		quarantine[i] = fmt.Sprint(i)
	}
	body := serviceCampaignBody(`,"quarantine":[` + strings.Join(quarantine, ",") + `]`)
	sub := submitOK(t, ts, body)
	st := waitTerminal(t, ts, sub.JobID)
	if st.State != JobFailed {
		t.Fatalf("all-quarantined campaign ended %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "every cluster lost") {
		t.Fatalf("failure cause not surfaced: %q", st.Error)
	}
	code, _ := getJSON(t, ts, "/api/v1/jobs/"+sub.JobID+"/result")
	if code != http.StatusConflict {
		t.Fatalf("result of failed job: status %d, want 409", code)
	}
	if got := counter(s, "serve.jobs.failed"); got != 1 {
		t.Fatalf("serve.jobs.failed = %d, want 1", got)
	}

	// Failed jobs are replaced, not reused: the retry gets a fresh job.
	retry := submitOK(t, ts, body)
	if retry.Deduped || retry.JobID == sub.JobID {
		t.Fatalf("resubmission deduped onto a failed job: %+v", retry)
	}
	waitTerminal(t, ts, retry.JobID)
	if !strings.Contains(log.String(), "failed") {
		t.Fatalf("service log silent about the failure:\n%s", log.String())
	}
}

func TestHandlerErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: -1, QueueCapacity: 2})

	code, raw := getJSON(t, ts, "/api/v1/jobs/job-999999")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d %s", code, raw)
	}
	code, _ = getJSON(t, ts, "/api/v1/jobs/job-999999/result")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job result: status %d", code)
	}
	resp, raw := postCampaign(t, ts, `{"workload":`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "decode") {
		t.Fatalf("malformed body: status %d %s", resp.StatusCode, raw)
	}
	resp, raw = postCampaign(t, ts, `{"workload":{"benchmark":"doom"}}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "invalid campaign") {
		t.Fatalf("invalid campaign: status %d %s", resp.StatusCode, raw)
	}

	code, raw = getJSON(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(raw), `"ok": true`) {
		t.Fatalf("healthz: %d %s", code, raw)
	}

	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	metrics, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(metrics), "megsimd_queue_capacity 2") {
		t.Fatalf("metrics missing capacity gauge:\n%s", metrics)
	}

	// A queued submission reports its state in the submit response.
	sub := submitOK(t, ts, `{"workload":{"random_seed":1}}`)
	if sub.State != jobQueued || sub.Deduped || !strings.HasPrefix(sub.Fingerprint, "cmp-") {
		t.Fatalf("submit response: %+v", sub)
	}
}
