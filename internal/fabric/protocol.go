// Package fabric is the distributed campaign fabric: the coordinator /
// worker split of the MEGsim campaign service. A coordinator is an
// ordinary serve.Server whose frame function dispatches representative
// frames over HTTP to a static fleet of simulation workers instead of
// the in-process simulator; everything else — admission, caching,
// supervision, checkpointing, degradation — runs coordinator-side
// unchanged.
//
// The protocol is one request per frame: the coordinator POSTs a
// WorkUnit (campaign fingerprint, frame index, and the workload/GPU
// specs the worker needs to rebuild the trace) and the worker answers a
// workResult (the frame's statistics plus its observability snapshot).
// The worker recomputes megsim.RunFingerprint over what it built and
// refuses mismatches, so version or configuration skew between peers
// surfaces as a 409 instead of silently corrupting a campaign.
//
// Failure semantics are layered onto the PR-4 resilience supervisor: a
// worker that dies mid-frame is marked down and the dispatch fails over
// to the next candidate; when no candidates remain the frame comes back
// as resilience.WorkerLost, which the supervisor requeues without
// charging the frame's retry budget. The checkpoint store stays on the
// coordinator, so a campaign interrupted on one fleet resumes
// byte-identically on another.
package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tbr"
)

// Protocol limits. Work units are small JSON documents; anything past
// these bounds is rejected at the worker's door (HTTP 400), never
// simulated.
const (
	// MaxWorkUnitBytes bounds the work-unit request body.
	MaxWorkUnitBytes = 1 << 20
	// maxFingerprint bounds the fingerprint string length.
	maxFingerprint = 64
	// maxFrameIndex bounds the dispatched frame index.
	maxFrameIndex = 1 << 20
)

// WorkUnit is one frame dispatch: everything a worker needs to simulate
// one representative frame of a campaign. The workload and GPU specs
// travel with every unit (they are a few hundred bytes) so workers stay
// stateless; the worker's trace cache makes rebuilds free after the
// first frame of a campaign.
type WorkUnit struct {
	// Fingerprint is the campaign's megsim.RunFingerprint. The worker
	// recomputes it from the specs below and rejects mismatches (409) —
	// the guard against coordinator/worker skew.
	Fingerprint string `json:"fingerprint"`
	// Frame is the trace frame index to simulate.
	Frame int `json:"frame"`
	// Workload and GPU are the campaign specs, exactly as submitted to
	// the coordinator.
	Workload serve.WorkloadSpec `json:"workload"`
	GPU      serve.GPUSpec      `json:"gpu,omitempty"`
	// Obs requests the frame's observability snapshot in the result.
	Obs bool `json:"obs,omitempty"`
}

// workResult is the worker's answer: the frame statistics and, when
// requested, the frame's full observability snapshot — the coordinator
// merges it into the supervisor's per-frame registry, so a distributed
// campaign's merged observability is byte-identical to a local run's.
type workResult struct {
	Frame int            `json:"frame"`
	Stats tbr.FrameStats `json:"stats"`
	Obs   *obs.Snapshot  `json:"obs,omitempty"`
	// Digest is the result's canonical content digest (ComputeDigest),
	// set by the worker. The coordinator recomputes it over what it
	// decoded and treats any mismatch as a corrupt or untrustworthy
	// delivery — the same CRC-envelope discipline resilience checkpoints
	// use, extended over the wire.
	Digest string `json:"digest,omitempty"`
}

// ComputeDigest returns the canonical digest of the result's content
// (frame, stats, observability snapshot — everything except the digest
// field itself): crc32 IEEE over the canonical JSON encoding. The
// encoding round-trips losslessly — json.Marshal sorts map keys and
// shortest-form floats re-encode byte-identically — so worker-side and
// coordinator-side digests agree exactly when, and only when, the
// decoded content matches what the worker computed.
func (r *workResult) ComputeDigest() string {
	payload := struct {
		Frame int            `json:"frame"`
		Stats tbr.FrameStats `json:"stats"`
		Obs   *obs.Snapshot  `json:"obs,omitempty"`
	}{r.Frame, r.Stats, r.Obs}
	b, err := json.Marshal(payload)
	if err != nil {
		// Unreachable for the concrete field types; never collides with
		// a real "crc32:%08x" digest.
		return "crc32:unencodable"
	}
	return fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(b))
}

// decodeWorkUnit reads, decodes and validates one work unit. Every
// failure — malformed JSON, unknown fields, trailing garbage, oversized
// bodies, out-of-bounds fields — returns an error (the worker answers
// 400); no input panics.
func decodeWorkUnit(r io.Reader) (*WorkUnit, error) {
	body, err := io.ReadAll(io.LimitReader(r, MaxWorkUnitBytes+1))
	if err != nil {
		return nil, fmt.Errorf("decode work unit: %w", err)
	}
	if len(body) > MaxWorkUnitBytes {
		return nil, fmt.Errorf("decode work unit: body exceeds %d bytes", MaxWorkUnitBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	u := &WorkUnit{}
	if err := dec.Decode(u); err != nil {
		return nil, fmt.Errorf("decode work unit: %w", err)
	}
	if dec.More() {
		return nil, errors.New("decode work unit: trailing data after unit")
	}
	if err := u.validate(); err != nil {
		return nil, fmt.Errorf("invalid work unit: %w", err)
	}
	return u, nil
}

// validate bounds-checks the unit without doing any heavy work. The
// workload and GPU specs are checked by the exact rules the campaign
// service applies at admission, so a worker never accepts a spec its
// coordinator would have refused.
func (u *WorkUnit) validate() error {
	if !strings.HasPrefix(u.Fingerprint, "megsim-") || len(u.Fingerprint) > maxFingerprint {
		return fmt.Errorf("fingerprint %q is not a megsim run fingerprint", u.Fingerprint)
	}
	if u.Frame < 0 || u.Frame > maxFrameIndex {
		return fmt.Errorf("frame %d out of [0, %d]", u.Frame, maxFrameIndex)
	}
	return workUnitRequest(u).Validate()
}

// workUnitRequest views a unit's specs as a campaign request, so the
// worker resolves traces and GPU configs through exactly the code the
// campaign service uses.
func workUnitRequest(u *WorkUnit) *serve.CampaignRequest {
	return &serve.CampaignRequest{Workload: u.Workload, GPU: u.GPU}
}
