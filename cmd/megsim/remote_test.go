package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/megsim"
)

// startDaemon runs an in-process campaign service behind httptest so
// -server mode exercises the real HTTP path end to end.
func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{QueueCapacity: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return ts
}

var (
	sampledJSONLine = regexp.MustCompile(`"sampled_run_ms": \d+`)
	sampledTextLine = regexp.MustCompile(`sampled run: .*`)
)

// TestServerModeMatchesLocal is the satellite acceptance test: the same
// flags submitted to a daemon must render the identical report a local
// run prints, in both -json and text mode, with only the wall-clock
// sampled-run field allowed to differ.
func TestServerModeMatchesLocal(t *testing.T) {
	ts := startDaemon(t)
	base := []string{"-benchmark", "hcr", "-frame-div", "40", "-retries", "2"}
	ctx := context.Background()

	localArgs := append([]string{}, base...)
	remoteArgs := append([]string{"-server", ts.URL}, base...)

	var localJSON, remoteJSON bytes.Buffer
	if err := run(ctx, append(append([]string{}, localArgs...), "-json"), &localJSON); err != nil {
		t.Fatalf("local -json run: %v", err)
	}
	if err := run(ctx, append(append([]string{}, remoteArgs...), "-json"), &remoteJSON); err != nil {
		t.Fatalf("remote -json run: %v", err)
	}
	lj := sampledJSONLine.ReplaceAllString(localJSON.String(), `"sampled_run_ms": 0`)
	rj := sampledJSONLine.ReplaceAllString(remoteJSON.String(), `"sampled_run_ms": 0`)
	if lj != rj {
		t.Errorf("local and remote JSON reports differ:\n--- local ---\n%s\n--- remote ---\n%s", lj, rj)
	}

	// The text rendering goes through the same shared report type; the
	// second remote submission also exercises the dedup path client-side.
	var localText, remoteText bytes.Buffer
	if err := run(ctx, localArgs, &localText); err != nil {
		t.Fatalf("local text run: %v", err)
	}
	if err := run(ctx, remoteArgs, &remoteText); err != nil {
		t.Fatalf("remote text run: %v", err)
	}
	lt := sampledTextLine.ReplaceAllString(localText.String(), "sampled run: X")
	rt := sampledTextLine.ReplaceAllString(remoteText.String(), "sampled run: X")
	if lt != rt {
		t.Errorf("local and remote text reports differ:\n--- local ---\n%s\n--- remote ---\n%s", lt, rt)
	}
	if !strings.Contains(lt, "workload:        hcr") {
		t.Errorf("text report missing workload line:\n%s", lt)
	}
}

// TestServerModeJobFailure surfaces a daemon-side job failure as a CLI
// error naming the job and its state.
func TestServerModeJobFailure(t *testing.T) {
	ts := startDaemon(t)
	// Pre-quarantining every frame leaves no cluster coverage, so the
	// campaign deterministically fails server-side.
	sc := megsim.DefaultScale()
	sc.FrameDivisor = 40
	quarantine := make([]string, megsim.MustGenerateBenchmark("hcr", sc).NumFrames())
	for f := range quarantine {
		quarantine[f] = strconv.Itoa(f)
	}
	args := []string{
		"-server", ts.URL, "-benchmark", "hcr", "-frame-div", "40",
		"-quarantine", strings.Join(quarantine, ","),
	}
	var buf bytes.Buffer
	err := run(context.Background(), args, &buf)
	if err == nil {
		t.Fatal("all-quarantined campaign did not fail")
	}
	if !strings.Contains(err.Error(), "failed") || !strings.Contains(err.Error(), "every cluster lost") {
		t.Fatalf("failure error lacks job state and cause: %v", err)
	}
}

// TestServerModeRefusesOversizedResult: a daemon whose result body is
// well-formed JSON but larger than maxResponseBytes is refused with an
// error naming the cap, not read into memory without bound.
func TestServerModeRefusesOversizedResult(t *testing.T) {
	pad := strings.Repeat("x", maxResponseBytes)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/api/v1/campaigns":
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(serve.SubmitResponse{JobID: "job-1", State: serve.JobState("queued")})
		case "/api/v1/jobs/job-1":
			json.NewEncoder(w).Encode(serve.JobStatus{ID: "job-1", State: serve.JobSucceeded})
		case "/api/v1/jobs/job-1/result":
			json.NewEncoder(w).Encode(map[string]string{"workload": "hcr", "pad": pad})
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-server", ts.URL, "-benchmark", "hcr", "-frame-div", "40", "-json"}, &buf)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxResponseBytes)) {
		t.Fatalf("oversized result: error %v, want one naming the %d-byte cap", err, maxResponseBytes)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized result reached stdout (%d bytes)", buf.Len())
	}
}

// TestServerModeFlagErrors rejects flag combinations that only make
// sense locally, before touching the network.
func TestServerModeFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-server", "127.0.0.1:1", "-benchmark", "hcr", "-validate"}, "-validate"},
		{[]string{"-server", "127.0.0.1:1", "-benchmark", "hcr", "-checkpoint", "x.ckpt"}, "-checkpoint"},
		{[]string{"-server", "127.0.0.1:1", "-benchmark", "hcr", "-resume"}, "-resume"},
		{[]string{"-server", "127.0.0.1:1", "-benchmark", "hcr", "-save-selection", "sel.json"}, "-save-selection"},
		{[]string{"-server", "127.0.0.1:1", "-trace", "x.trace"}, "-trace"},
		{[]string{"-server", "127.0.0.1:1"}, "-benchmark"},
		{[]string{"-server", "127.0.0.1:1", "-benchmark", "no-such-benchmark"}, "benchmark"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		err := run(context.Background(), tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %v, want mention of %q", tc.args, err, tc.want)
		}
	}
}
