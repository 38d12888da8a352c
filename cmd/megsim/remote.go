package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// pollInterval is how often -server mode re-checks a submitted job.
// Campaigns at real scale take seconds to minutes, so a coarse poll
// keeps the daemon's handler load negligible.
const pollInterval = 250 * time.Millisecond

// maxResponseBytes bounds every daemon response body the CLI reads, the
// same bound the cluster coordinator puts on a worker's frame result.
const maxResponseBytes = 32 << 20

// runRemote submits the validated campaign to a megsimd daemon, waits
// for the job to finish, and renders the result with the same renderers
// a local run uses — so apart from wall-clock timing the output is
// identical either way. Backpressure (429) is retried after the
// daemon's advertised delay; a draining daemon (503) is a hard error.
func runRemote(ctx context.Context, addr string, req *serve.CampaignRequest, jsonOut bool, stdout io.Writer) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}

	sub, err := submitCampaign(ctx, base, body)
	if err != nil {
		return err
	}

	status, err := awaitJob(ctx, base, sub.JobID)
	if err != nil {
		return err
	}
	if status.State != serve.JobSucceeded {
		return fmt.Errorf("job %s %s: %s", sub.JobID, status.State, status.Error)
	}

	raw, err := fetchResult(ctx, base, sub.JobID)
	if err != nil {
		return err
	}
	if jsonOut {
		// The daemon renders each result exactly once; relaying the raw
		// bytes preserves its byte-identity guarantee end to end.
		_, err := stdout.Write(raw)
		return err
	}
	var rep serve.CampaignReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("malformed result from %s: %w", base, err)
	}
	rep.WriteText(stdout)
	return nil
}

// submitCampaign POSTs the campaign, retrying on 429 for as long as the
// run context allows.
func submitCampaign(ctx context.Context, base string, body []byte) (*serve.SubmitResponse, error) {
	for {
		resp, payload, err := doRequest(ctx, http.MethodPost, base+"/api/v1/campaigns", body)
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			var sub serve.SubmitResponse
			if err := json.Unmarshal(payload, &sub); err != nil {
				return nil, fmt.Errorf("malformed submit response: %w", err)
			}
			return &sub, nil
		case http.StatusTooManyRequests:
			delay := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					delay = time.Duration(secs) * time.Second
				}
			}
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("daemon backpressured and deadline hit: %s", remoteError(payload))
			case <-time.After(delay):
			}
		default:
			return nil, fmt.Errorf("submit rejected (%s): %s", resp.Status, remoteError(payload))
		}
	}
}

// awaitJob polls until the job reaches a terminal state.
func awaitJob(ctx context.Context, base, jobID string) (*serve.JobStatus, error) {
	for {
		resp, payload, err := doRequest(ctx, http.MethodGet, base+"/api/v1/jobs/"+jobID, nil)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("poll failed (%s): %s", resp.Status, remoteError(payload))
		}
		var status serve.JobStatus
		if err := json.Unmarshal(payload, &status); err != nil {
			return nil, fmt.Errorf("malformed job status: %w", err)
		}
		switch status.State {
		case serve.JobSucceeded, serve.JobFailed, serve.JobInterrupted:
			return &status, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("gave up waiting for job %s (still %s): %w", jobID, status.State, ctx.Err())
		case <-time.After(pollInterval):
		}
	}
}

// fetchResult retrieves the stored result bytes verbatim.
func fetchResult(ctx context.Context, base, jobID string) ([]byte, error) {
	resp, payload, err := doRequest(ctx, http.MethodGet, base+"/api/v1/jobs/"+jobID+"/result", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result fetch failed (%s): %s", resp.Status, remoteError(payload))
	}
	return payload, nil
}

func doRequest(ctx context.Context, method, url string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	// Read one byte past the cap so an oversized body is refused by
	// name rather than cut short into a malformed-JSON error.
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, nil, err
	}
	if len(payload) > maxResponseBytes {
		return nil, nil, fmt.Errorf("%s %s: daemon answered more than %d bytes", method, url, maxResponseBytes)
	}
	return resp, payload, nil
}

// remoteError extracts the service's {"error": ...} message, falling
// back to the raw payload for anything unexpected.
func remoteError(payload []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(payload, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(payload))
}
