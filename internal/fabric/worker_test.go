package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/megsim"
)

// postUnit POSTs a raw body to a worker's frame endpoint.
func postUnit(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/fabric/v1/frames", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST frame: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// validWorkUnit builds a genuine unit for the canonical campaign: real
// fingerprint, in-range frame.
func validWorkUnit(t *testing.T, frame int) (*WorkUnit, *megsim.Trace) {
	t.Helper()
	req, tr, gpu, err := clusterRequest()
	if err != nil {
		t.Fatal(err)
	}
	return &WorkUnit{
		Fingerprint: megsim.RunFingerprint(tr, gpu),
		Frame:       frame,
		Workload:    req.Workload,
		GPU:         req.GPU,
		Obs:         true,
	}, tr
}

func marshalUnit(t *testing.T, u *WorkUnit) string {
	t.Helper()
	b, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWorkerSimulatesFrame: the happy path end to end — a valid unit
// comes back 200 with the frame's stats matching an in-process
// simulation and a non-empty observability snapshot.
func TestWorkerSimulatesFrame(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	u, tr := validWorkUnit(t, 1)
	code, raw := postUnit(t, ts, marshalUnit(t, u))
	if code != http.StatusOK {
		t.Fatalf("valid unit: status %d: %s", code, raw)
	}
	var res workResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if res.Frame != u.Frame {
		t.Fatalf("result frame %d, want %d", res.Frame, u.Frame)
	}
	if res.Obs == nil {
		t.Fatal("obs requested but result carries no snapshot")
	}

	// Stats must match the in-process simulator exactly.
	_, _, gpu, err := clusterRequest()
	if err != nil {
		t.Fatal(err)
	}
	want, err := megsim.FrameRunner(tr, gpu)(context.Background(), u.Frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != want {
		t.Fatalf("worker stats differ from in-process run:\nworker: %+v\nlocal:  %+v", res.Stats, want)
	}

	// Without obs, the result omits the snapshot entirely.
	u2 := *u
	u2.Obs = false
	_, raw2 := postUnit(t, ts, marshalUnit(t, &u2))
	if bytes.Contains(raw2, []byte(`"obs"`)) {
		t.Fatal("obs snapshot present though not requested")
	}
	if got := workerServed(w); got != 2 {
		t.Fatalf("fabric.frames.served = %d, want 2", got)
	}
}

// TestWorkerRefusals: every deterministic refusal maps to the right
// status code — the codes the coordinator keys its failover decision on.
func TestWorkerRefusals(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	u, tr := validWorkUnit(t, 0)

	mismatch := *u
	mismatch.Fingerprint = "megsim-deadbeefdeadbeefdeadbeef"
	if code, raw := postUnit(t, ts, marshalUnit(t, &mismatch)); code != http.StatusConflict {
		t.Fatalf("fingerprint mismatch: status %d, want 409: %s", code, raw)
	}

	outOfRange := *u
	outOfRange.Frame = tr.NumFrames()
	if code, raw := postUnit(t, ts, marshalUnit(t, &outOfRange)); code != http.StatusBadRequest {
		t.Fatalf("out-of-range frame: status %d, want 400: %s", code, raw)
	}

	if code, _ := postUnit(t, ts, `{"garbage`); code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", code)
	}

	if got := w.reg.Snapshot().Counters["fabric.frames.rejected"]; got != 3 {
		t.Fatalf("fabric.frames.rejected = %d, want 3", got)
	}
}

// TestWorkerDrain: drain flips the draining gauge on /metrics and
// refuses frames with 503 (the signal that benches the worker on its
// coordinator). /metrics stays serviceable while draining.
func TestWorkerDrain(t *testing.T) {
	log := &lockedBuf{}
	w := NewWorker(WorkerConfig{Log: log})
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	if w.draining.Load() {
		t.Fatal("fresh worker reports draining")
	}

	metrics := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics: status %d, %v", resp.StatusCode, err)
		}
		if !bytes.Contains(body, []byte("fabric_worker_inflight 0\n")) {
			t.Fatalf("metrics missing the in-flight gauge:\n%s", body)
		}
		return body
	}
	if body := metrics(); !bytes.Contains(body, []byte("fabric_worker_draining 0\n")) {
		t.Fatalf("fresh worker metrics want draining 0:\n%s", body)
	}

	resp, err := http.Post(ts.URL+"/fabric/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}
	if body := metrics(); !bytes.Contains(body, []byte("fabric_worker_draining 1\n")) {
		t.Fatalf("post-drain metrics want draining 1:\n%s", body)
	}
	if !w.draining.Load() {
		t.Fatal("Draining() false after drain")
	}
	if !strings.Contains(log.String(), "worker draining") {
		t.Fatalf("drain not logged:\n%s", log.String())
	}

	u, _ := validWorkUnit(t, 0)
	if code, _ := postUnit(t, ts, marshalUnit(t, u)); code != http.StatusServiceUnavailable {
		t.Fatalf("draining worker answered %d, want 503", code)
	}
	if body := metrics(); !bytes.Contains(body, []byte("fabric_worker_draining 1\n")) {
		t.Fatalf("metrics after a refused frame want draining 1:\n%s", body)
	}
}

// TestWorkerCancelledFrameIsServerError: a simulation that dies
// mid-frame (here: context cancellation) is a 500, not a 4xx — the
// coordinator must treat it as a worker problem and fail over, never
// as a refusal of the unit.
func TestWorkerCancelledFrameIsServerError(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	u, _ := validWorkUnit(t, 0)
	// Warm the trace cache so the cancellation hits the simulator, not
	// the trace build.
	if _, code, err := w.simulate(context.Background(), u); err != nil || code != http.StatusOK {
		t.Fatalf("warmup simulate: code %d, err %v", code, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, code, err := w.simulate(ctx, u)
	if err == nil {
		t.Fatal("cancelled simulation succeeded")
	}
	if code != http.StatusInternalServerError {
		t.Fatalf("cancelled simulation: code %d (%v), want 500", code, err)
	}
}

// TestWriteJSONMarshalFailure: an unmarshalable value degrades to the
// JSON error envelope instead of a half-written body.
func TestWriteJSONMarshalFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, make(chan int))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("writeJSON with unmarshalable value: code %d, want 500", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
		t.Fatalf("no error envelope: %s", rec.Body.String())
	}
}

// TestWorkerReusesRunner: work units of one run share the worker's
// cached frame runner (and its simulators), with the same stats as a
// fresh runner, and the worker's /metrics shows the runner counters. A
// unit whose workload differs only in width carries the same run
// fingerprint and must still get its own runner and its own trace.
func TestWorkerReusesRunner(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	req, tr, gpu, err := clusterRequest()
	if err != nil {
		t.Fatal(err)
	}
	wide := *req
	wide.Workload.Width *= 2
	wideTr, err := wide.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	fp := megsim.RunFingerprint(tr, gpu)
	if wfp := megsim.RunFingerprint(wideTr, gpu); wfp != fp {
		t.Fatalf("run fingerprints differ (%s, %s); the test needs them equal", fp, wfp)
	}
	for _, c := range []struct {
		req   *serve.CampaignRequest
		tr    *megsim.Trace
		frame int
	}{{req, tr, 1}, {req, tr, 2}, {&wide, wideTr, 1}, {req, tr, 1}, {&wide, wideTr, 2}} {
		u := &WorkUnit{Fingerprint: fp, Frame: c.frame, Workload: c.req.Workload, GPU: c.req.GPU}
		code, raw := postUnit(t, ts, marshalUnit(t, u))
		if code != http.StatusOK {
			t.Fatalf("width %d frame %d: status %d: %s", u.Workload.Width, c.frame, code, raw)
		}
		var res workResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		want, err := megsim.FrameRunner(c.tr, gpu)(context.Background(), c.frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != want {
			t.Fatalf("width %d frame %d on a cached runner differs:\nworker: %+v\nfresh:  %+v", u.Workload.Width, c.frame, res.Stats, want)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"serve_cache_runner_hit 3", "serve_cache_runner_miss 2"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("worker metrics missing %q", want)
		}
	}
}
