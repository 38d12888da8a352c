package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe log sink: the daemon's workers write
// job lifecycle lines concurrently with the test reading them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listeningLine = regexp.MustCompile(`listening on (http://[^\s]+)`)

// TestDaemonLifecycle boots the daemon on an ephemeral port, runs one
// campaign through the HTTP API, checks the metrics endpoint, and
// shuts down via context cancellation (the SIGINT/SIGTERM path).
func TestDaemonLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	args := []string{
		"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4",
		"-checkpoint-dir", t.TempDir(), "-drain-timeout", "2m",
	}
	go func() { done <- run(ctx, args, out) }()

	base, err := waitListening(out)
	if err != nil {
		t.Fatal(err)
	}

	resp, body, err := get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v %s", err, resp, body)
	}

	campaign := `{"workload":{"benchmark":"hcr","width":128,"height":64,"frame_div":20,"detail_div":2}}`
	resp, body, err = post(base+"/api/v1/campaigns", campaign)
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
		resp, body, err = get(base + "/api/v1/jobs/" + sub.JobID)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %v %s", err, body)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
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

	resp, body, err = get(base + "/api/v1/jobs/" + sub.JobID + "/result")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %v %s", err, body)
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

	resp, body, err = get(base + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v %s", err, body)
	}
	for _, want := range []string{"serve_jobs_completed 1", "megsimd_queue_capacity 4"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("daemon did not drain")
	}
	log := out.String()
	for _, want := range []string{"draining", "drained cleanly"} {
		if !strings.Contains(log, want) {
			t.Errorf("daemon log missing %q:\n%s", want, log)
		}
	}
}

// TestDaemonBadFlags exercises the error paths that must fail before
// the daemon binds a socket. Every row listens on an ephemeral port
// under an already-cancelled context, so a flag combination the daemon
// wrongly accepts drains at once and returns nil instead of blocking.
func TestDaemonBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-addr", "256.0.0.1:bad"}, "listen"},
		{[]string{"-heartbeat", "1s"}, "-heartbeat needs -coordinator"},
		{[]string{"-audit-fraction", "0.5"}, "-audit-fraction needs -coordinator"},
		{[]string{"-chaos-seed", "7"}, "-chaos-seed needs -coordinator"},
		{[]string{"-coordinator", "http://localhost:1", "-audit-fraction", "1.5"}, "audit"},
	} {
		var buf bytes.Buffer
		args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
		err := run(ctx, args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

func waitListening(out *syncBuffer) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listeningLine.FindStringSubmatch(out.String()); m != nil {
			return m[1], nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("daemon never reported its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func get(url string) (*http.Response, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func post(url, body string) (*http.Response, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return resp, payload, err
}
