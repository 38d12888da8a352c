package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
	"repro/megsim"
)

// clusterWorkerCount is the fleet size the cluster tests run: the
// smallest fleet where killing one worker still leaves a quorum to
// exercise failover.
const clusterWorkerCount = 3

// clusterCampaignBody is the canonical cluster-test campaign: the
// harness.TestOptions workload with two attempts per frame (identical
// to the serve tests' campaign — that identity is the whole point, a
// distributed campaign must be byte-identical to a single-process one)
// as a submission document.
func clusterCampaignBody() string {
	sc := harness.TestOptions().Scale
	return fmt.Sprintf(
		`{"workload":{"benchmark":"hcr","width":%d,"height":%d,"frame_div":%d,"detail_div":%d},`+
			`"resilience":{"retries":2}}`,
		sc.Width, sc.Height, sc.FrameDivisor, sc.DetailDivisor)
}

// clusterGolden runs the canonical campaign once, in process, as the
// determinism property's reference does: the normalized report every
// distributed execution must match byte for byte. Computed once.
var (
	clusterGoldenOnce sync.Once
	clusterGoldenRaw  []byte
	clusterGoldenErr  error
)

func clusterGolden(t *testing.T) []byte {
	t.Helper()
	clusterGoldenOnce.Do(func() {
		req, tr, _, err := clusterRequest()
		if err != nil {
			clusterGoldenErr = err
			return
		}
		run, err := runLocal(req, tr, localOpts{ckpt: filepath.Join(t.TempDir(), "golden.ckpt"), kill: -1})
		if err != nil {
			clusterGoldenErr = err
			return
		}
		clusterGoldenRaw, clusterGoldenErr = normalizeReport(run.report, false)
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

// namedFleet serves each handler under a stable name: the coordinator
// addresses worker i as http://wi, and the returned client dials that
// name to the worker's httptest listener. Every chaos roll and the
// rendezvous hash key on the name, so a run draws the same faults and
// routes whatever ports the listeners get.
func namedFleet(t *testing.T, handlers ...http.Handler) ([]string, *http.Client) {
	t.Helper()
	urls := make([]string, len(handlers))
	addrs := make(map[string]string, len(handlers))
	for i, h := range handlers {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[i] = fmt.Sprintf("http://w%d", i)
		addrs[fmt.Sprintf("w%d:80", i)] = ts.Listener.Addr().String()
	}
	var d net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		to, ok := addrs[addr]
		if !ok {
			return nil, fmt.Errorf("no test worker is named %s", addr)
		}
		return d.DialContext(ctx, network, to)
	}}
	t.Cleanup(tr.CloseIdleConnections)
	return urls, &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// startFleet brings up n workers behind kill switches as a named fleet
// and returns their pieces in index order.
func startFleet(t *testing.T, n int) ([]*Worker, []*killSwitch, []string, *http.Client) {
	t.Helper()
	workers := make([]*Worker, n)
	switches := make([]*killSwitch, n)
	handlers := make([]http.Handler, n)
	for i := range handlers {
		workers[i] = NewWorker(WorkerConfig{})
		switches[i] = &killSwitch{}
		handlers[i] = killable(workers[i].Handler(), switches[i])
	}
	urls, client := namedFleet(t, handlers...)
	return workers, switches, urls, client
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
	workers, switches, urls, client := startFleet(t, clusterWorkerCount)

	// Compute the campaign's routing key (its run fingerprint) and the
	// worker affinity will choose, then arm that worker to die after
	// serving one frame.
	_, tr, gpu, err := clusterRequest()
	if err != nil {
		t.Fatal(err)
	}
	target := affinity{}.Pick(megsim.RunFingerprint(tr, gpu), urls)
	switches[target].killAfter = 1

	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, Client: client})
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
	// recorded the failover and left the member benched (its
	// re-admission trials found it still dead).
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

// TestClusterDrainResumeAcrossCoordinators: a campaign interrupted on
// one coordinator resumes byte-identically on a different coordinator
// over a smaller fleet — the checkpoint store, not the fleet, is the
// state of record.
func TestClusterDrainResumeAcrossCoordinators(t *testing.T) {
	dir := t.TempDir()
	_, _, urls, client := startFleet(t, clusterWorkerCount)
	body := clusterCampaignBody()

	coordA, err := NewCoordinator(CoordinatorConfig{Workers: urls, Client: client})
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
	coordB, err := NewCoordinator(CoordinatorConfig{Workers: urls[1:], Client: client})
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
