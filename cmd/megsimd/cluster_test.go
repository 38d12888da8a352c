package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestClusterDaemonLifecycle boots two worker daemons and one
// coordinator daemon, runs a campaign through the coordinator's
// campaign API, verifies fleet metrics, and drains all three via
// context cancellation.
func TestClusterDaemonLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Two simulation workers on ephemeral ports.
	workerURLs := make([]string, 2)
	workerDone := make([]chan error, 2)
	for i := range workerURLs {
		out := &syncBuffer{}
		done := make(chan error, 1)
		go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-worker"}, out) }()
		base, err := waitListening(out)
		if err != nil {
			t.Fatal(err)
		}
		workerURLs[i] = base
		workerDone[i] = done
	}

	// The coordinator: the ordinary campaign API over the fleet.
	out := &syncBuffer{}
	done := make(chan error, 1)
	args := []string{
		"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4",
		"-checkpoint-dir", t.TempDir(),
		"-coordinator", strings.Join(workerURLs, ","),
	}
	go func() { done <- run(ctx, args, out) }()
	base, err := waitListening(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "coordinating 2 workers") {
		t.Fatalf("coordinator did not report its fleet:\n%s", out.String())
	}

	campaign := `{"workload":{"benchmark":"hcr","width":128,"height":64,"frame_div":20,"detail_div":2}}`
	resp, body, err := post(base+"/api/v1/campaigns", campaign)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s %s", resp.Status, body)
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("submit response: %v in %s", err, body)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		_, body, err = get(base + "/api/v1/jobs/" + sub.JobID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct{ State, Error string }
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "succeeded" {
			break
		}
		if st.State == "failed" || st.State == "interrupted" {
			t.Fatalf("job %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	_, body, err = get(base + "/api/v1/jobs/" + sub.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Workload string `json:"workload"`
		Cycles   uint64 `json:"estimated_cycles"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "hcr" || rep.Cycles == 0 {
		t.Fatalf("implausible report: %s", body)
	}

	// The coordinator's /metrics carries the fleet state; the workers
	// actually simulated the frames (the coordinator ran none itself).
	_, metrics, err := get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fabric_workers_live 2", "fabric_dispatch_sent", "serve_jobs_completed 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}
	var served uint64
	for _, wu := range workerURLs {
		_, wm, err := get(wu + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(wm), "\n") {
			var n uint64
			if _, err := fmt.Sscanf(line, "fabric_frames_served %d", &n); err == nil {
				served += n
			}
		}
	}
	if served == 0 {
		t.Fatal("no worker reports served frames")
	}

	cancel()
	for _, done := range append(workerDone, done) {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(time.Minute):
			t.Fatal("a daemon did not drain")
		}
	}
	if log := out.String(); !strings.Contains(log, "drained cleanly") {
		t.Errorf("coordinator log missing drain:\n%s", log)
	}
}

// TestClusterBadFlags: the mode flags must refuse contradictory
// combinations before binding a socket. As in TestDaemonBadFlags, a
// wrongly accepted row drains at once under the cancelled context.
func TestClusterBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-worker", "-coordinator", "http://x"}, "-coordinator cannot be combined with -worker"},
		{[]string{"-worker", "-checkpoint-dir", "ckpt"}, "-checkpoint-dir cannot be combined with -worker"},
		{[]string{"-worker", "-queue", "8"}, "-queue cannot be combined with -worker"},
		{[]string{"-worker", "-workers", "2"}, "-workers cannot be combined with -worker"},
		{[]string{"-worker", "-frame-cache", "16"}, "-frame-cache cannot be combined with -worker"},
		{[]string{"-worker", "-heartbeat", "1s"}, "-heartbeat cannot be combined with -worker"},
		{[]string{"-worker", "-audit-fraction", "0.5"}, "-audit-fraction cannot be combined with -worker"},
		{[]string{"-worker", "-chaos-seed", "7"}, "-chaos-seed cannot be combined with -worker"},
		{[]string{"-coordinator", " , "}, "worker"}, // no usable worker URLs
	} {
		var buf bytes.Buffer
		args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
		err := run(ctx, args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
