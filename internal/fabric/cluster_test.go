package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/megsim"
)

// clusterWorkerCount is the fleet size the cluster tests run: the
// smallest fleet where killing one worker still leaves a quorum to
// exercise failover.
const clusterWorkerCount = 3

// serviceResilience is the supervisor half of the service settings:
// one retry per frame with backoff disabled, so tests exercise the
// supervised path without sleeping on injected faults.
func serviceResilience() resilience.Config {
	return resilience.Config{MaxAttempts: 2, BackoffBase: -1}
}

// clusterResilience is serviceResilience plus a small worker-loss
// requeue budget, so a dispatch stranded by a dying worker re-enters
// the pool a bounded number of times without charging the frame's
// attempts.
func clusterResilience() resilience.Config {
	cfg := serviceResilience()
	cfg.MaxRequeues = 8
	return cfg
}

// clusterCampaignBody is the canonical cluster-test campaign: the
// harness.TestOptions workload under the service resilience settings
// (identical to the serve tests' campaign — that identity is the whole
// point, a distributed campaign must be byte-identical to a
// single-process one) as a submission document.
func clusterCampaignBody() string {
	sc := harness.TestOptions().Scale
	return fmt.Sprintf(
		`{"workload":{"benchmark":"hcr","width":%d,"height":%d,"frame_div":%d,"detail_div":%d},`+
			`"resilience":{"retries":%d}}`,
		sc.Width, sc.Height, sc.FrameDivisor, sc.DetailDivisor,
		serviceResilience().MaxAttempts)
}

// clusterGolden runs the canonical campaign once, in-process through
// megsim.SampleResilient — the ground truth every distributed execution
// must match byte-for-byte (modulo wall clock). Computed once.
var (
	clusterGoldenOnce sync.Once
	clusterGoldenRaw  []byte
	clusterGoldenErr  error
)

func clusterGolden(t *testing.T) []byte {
	t.Helper()
	clusterGoldenOnce.Do(func() {
		req, tr, gpu, err := clusterRequest()
		if err != nil {
			clusterGoldenErr = err
			return
		}
		rrun, err := megsim.SampleResilient(context.Background(), tr,
			req.MegsimConfig(), gpu, serviceResilience())
		if err != nil {
			clusterGoldenErr = err
			return
		}
		raw, err := marshalReport(serve.NewCampaignReport(rrun, 0))
		if err != nil {
			clusterGoldenErr = err
			return
		}
		clusterGoldenRaw, clusterGoldenErr = normalizeReport(raw, false)
	})
	if clusterGoldenErr != nil {
		t.Fatalf("cluster golden run: %v", clusterGoldenErr)
	}
	return clusterGoldenRaw
}

// clusterRequest decodes the canonical campaign and resolves its trace
// and GPU config (what both a worker and the golden run derive).
func clusterRequest() (*serve.CampaignRequest, *megsim.Trace, megsim.GPUConfig, error) {
	req, err := serve.DecodeCampaignRequest(strings.NewReader(clusterCampaignBody()))
	if err != nil {
		return nil, nil, megsim.GPUConfig{}, err
	}
	tr, err := req.BuildTrace()
	if err != nil {
		return nil, nil, megsim.GPUConfig{}, err
	}
	gpu, err := req.GPUConfig()
	if err != nil {
		return nil, nil, megsim.GPUConfig{}, err
	}
	return req, tr, gpu, nil
}

// marshalReport and normalizeReport mirror the serve test helpers: the
// report rendered exactly as the service renders it, with wall clock
// (and optionally resume accounting) normalized for byte comparison.
func marshalReport(rep *serve.CampaignReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func normalizeReport(raw []byte, clearResume bool) ([]byte, error) {
	var r serve.CampaignReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("normalize report: %w", err)
	}
	r.SampledMillis = 0
	if clearResume && r.Resilience != nil {
		r.Resilience.Resumed = nil
		r.Resilience.Requeued = 0
	}
	return marshalReport(&r)
}

// --- minimal HTTP test plumbing against the campaign service ---

func submitOK(t *testing.T, ts *httptest.Server, body string) serve.SubmitResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST campaign: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatalf("decode submit response: %v", err)
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

func waitTerminal(t *testing.T, ts *httptest.Server, id string) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, raw := getJSON(t, ts, "/api/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, code, raw)
		}
		var st serve.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		switch st.State {
		case serve.JobSucceeded, serve.JobFailed, serve.JobInterrupted:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- killable workers ---

// killSwitch turns a worker's transport off deterministically: once
// armed (after killAfter served frames), every connection is hijacked
// and closed raw — a genuine mid-request transport error, exactly what
// a dying worker process looks like to the coordinator. Frame requests
// are admitted against killAfter before they are served, so concurrent
// dispatches cannot slip a frame past the kill while the last admitted
// one is still in flight.
type killSwitch struct {
	killAfter int64
	admitted  atomic.Int64
	served    atomic.Int64
	killed    atomic.Bool
}

func killable(h http.Handler, ks *killSwitch) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fabric/v1/frames" && ks.killAfter > 0 && ks.admitted.Add(1) > ks.killAfter {
			ks.killed.Store(true)
		}
		if ks.killed.Load() {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
		if r.URL.Path == "/fabric/v1/frames" && ks.killAfter > 0 && ks.served.Add(1) >= ks.killAfter {
			ks.killed.Store(true)
		}
	})
}

// startFleet brings up n workers behind kill switches and returns their
// pieces in index order.
func startFleet(t *testing.T, n int) ([]*Worker, []*killSwitch, []string) {
	t.Helper()
	workers := make([]*Worker, n)
	switches := make([]*killSwitch, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		workers[i] = NewWorker(WorkerConfig{})
		switches[i] = &killSwitch{}
		ts := httptest.NewServer(killable(workers[i].Handler(), switches[i]))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return workers, switches, urls
}

func workerServed(w *Worker) uint64 {
	return w.reg.Snapshot().Counters["fabric.frames.served"]
}

// TestClusterKillWorkerMidCampaign is the fabric's headline contract:
// an in-process cluster — coordinator + 3 workers — runs the canonical
// campaign with the affinity-routed worker killed after its first
// frame, and the campaign still completes with result bytes identical
// to a single-process run. The kill is deterministic: the affinity
// policy is a pure function, so the test computes which worker the
// campaign lands on and arms exactly that one.
func TestClusterKillWorkerMidCampaign(t *testing.T) {
	workers, switches, urls := startFleet(t, clusterWorkerCount)

	// Compute the campaign's routing key (its run fingerprint) and the
	// worker affinity will choose, then arm that worker to die after
	// serving one frame.
	_, tr, gpu, err := clusterRequest()
	if err != nil {
		t.Fatal(err)
	}
	fp := megsim.RunFingerprint(tr, gpu)
	cands := make([]Candidate, len(urls))
	for i, u := range urls {
		cands[i] = Candidate{Name: u}
	}
	target := affinity{}.Pick(fp, cands)
	if target < 0 {
		t.Fatal("affinity found no candidate")
	}
	switches[target].killAfter = 1

	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:           urls,
		HeartbeatInterval: -1, // deterministic: only dispatch failures mark members down
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	srv := serve.New(serve.Config{Workers: 1, QueueCapacity: 8, CheckpointDir: t.TempDir(), Dispatcher: coord})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	sub := submitOK(t, ts, clusterCampaignBody())
	st := waitTerminal(t, ts, sub.JobID)
	if st.State != serve.JobSucceeded {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}

	code, raw := getJSON(t, ts, "/api/v1/jobs/"+sub.JobID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, raw)
	}
	norm, err := normalizeReport(raw, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := clusterGolden(t); !bytes.Equal(norm, want) {
		t.Fatalf("distributed result differs from single-process run:\n--- cluster ---\n%s\n--- direct ---\n%s", norm, want)
	}

	// The kill actually happened and the fleet actually absorbed it: the
	// doomed worker served exactly its one frame before dying, the
	// survivors served every other representative, and the coordinator
	// recorded the failover and marked the member down.
	var rep serve.CampaignReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	reps := uint64(len(rep.Representatives))
	if got := workerServed(workers[target]); got != 1 {
		t.Fatalf("killed worker served %d frames, want exactly 1", got)
	}
	var survivors uint64
	for i, w := range workers {
		if i != target {
			survivors += workerServed(w)
		}
	}
	if survivors != reps-1 {
		t.Fatalf("survivors served %d frames, want %d", survivors, reps-1)
	}
	snap := coord.reg.Snapshot()
	if got := snap.Counters["fabric.dispatch.failover"]; got < 1 {
		t.Fatal("no failover recorded for a mid-campaign worker death")
	}
	if up := snap.Gauges[fmt.Sprintf("fabric.worker.%d.up", target)]; up != 0 {
		t.Fatalf("killed worker still up in gauges (%d)", up)
	}
	if live := snap.Gauges["fabric.workers.live"]; live != int64(len(workers)-1) {
		t.Fatalf("fabric.workers.live = %d, want %d", live, len(workers)-1)
	}
}

// TestDistributedObsIdentity is the observability half of the identity
// contract, checked below the HTTP service: the same supervised run
// with frames dispatched round-robin across two workers must leave the
// supervisor's merged registry byte-identical to the in-process run —
// snapshots, estimates, everything.
func TestDistributedObsIdentity(t *testing.T) {
	req, tr, gpu, err := clusterRequest()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := megsim.Characterize(tr)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := megsim.SelectFrames(ch, req.MegsimConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp := megsim.RunFingerprint(tr, gpu)

	run := func(fn megsim.ResilientFrameFunc) (*megsim.ResilientRun, []byte) {
		t.Helper()
		rcfg := clusterResilience()
		rcfg.Obs = obs.NewWith(obs.Options{TraceCapacity: -1})
		rrun, err := megsim.SampleResilientPrepared(context.Background(), tr, ch, sel, gpu, rcfg, fn)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rcfg.Obs.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return rrun, buf.Bytes()
	}

	local, localObs := run(megsim.FrameRunner(tr, gpu))

	_, _, urls := startFleet(t, 2)
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:           urls,
		Policy:            &roundRobin{}, // spread frames across both workers
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	dist, distObs := run(coord.FrameRunner(fp, req))

	if local.Estimate != dist.Estimate {
		t.Fatalf("estimates differ:\nlocal: %+v\ndist:  %+v", local.Estimate, dist.Estimate)
	}
	if !bytes.Equal(localObs, distObs) {
		t.Fatalf("merged observability differs:\n--- local ---\n%s\n--- distributed ---\n%s", localObs, distObs)
	}
}

// TestClusterDrainResumeAcrossCoordinators: a campaign interrupted on
// one coordinator resumes byte-identically on a different coordinator
// over a smaller fleet — the checkpoint store, not the fleet, is the
// state of record.
func TestClusterDrainResumeAcrossCoordinators(t *testing.T) {
	dir := t.TempDir()
	_, _, urls := startFleet(t, clusterWorkerCount)
	body := clusterCampaignBody()

	coordA, err := NewCoordinator(CoordinatorConfig{Workers: urls, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srvA := serve.New(serve.Config{Workers: 1, QueueCapacity: 8, CheckpointDir: dir, Dispatcher: coordA})
	tsA := httptest.NewServer(srvA.Handler())
	subA := submitOK(t, tsA, body)

	// Let the job leave the queue, then drain mid-run. (On a fast
	// machine it may already have finished — both outcomes are legal;
	// the resubmission contract holds either way.)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, raw := getJSON(t, tsA, "/api/v1/jobs/"+subA.JobID)
		if !strings.Contains(string(raw), `"queued"`) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srvA.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tsA.Close()
	coordA.Close()

	// A different coordinator over a shrunk fleet (the first worker
	// "decommissioned"), same checkpoint directory.
	coordB, err := NewCoordinator(CoordinatorConfig{Workers: urls[1:], HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer coordB.Close()
	srvB := serve.New(serve.Config{Workers: 1, QueueCapacity: 8, CheckpointDir: dir, Dispatcher: coordB})
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	defer srvB.Drain(context.Background())

	reA := submitOK(t, tsB, body)
	if reA.Fingerprint != subA.Fingerprint {
		t.Fatal("resubmission fingerprint changed across coordinators")
	}
	if st := waitTerminal(t, tsB, reA.JobID); st.State != serve.JobSucceeded {
		t.Fatalf("resumed campaign ended %s: %s", st.State, st.Error)
	}
	_, raw := getJSON(t, tsB, "/api/v1/jobs/"+reA.JobID+"/result")
	norm, err := normalizeReport(raw, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := clusterGolden(t); !bytes.Equal(norm, want) {
		t.Fatalf("resumed-on-new-fleet result differs from single-process run:\n--- cluster ---\n%s\n--- direct ---\n%s", norm, want)
	}
}
