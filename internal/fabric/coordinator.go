package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/megsim"
	"sync/atomic"

	"repro/internal/tbr"
)

// defaultHeartbeatInterval is the worker-probe cadence when
// CoordinatorConfig leaves it zero.
const defaultHeartbeatInterval = 2 * time.Second

// maxResultBytes bounds a worker's frame-result body.
const maxResultBytes = 32 << 20

// defaultDigestFailureLimit is how many digest-verification failures a
// worker accumulates before quarantine when the config leaves the limit
// zero. Transient wire corruption (which the chaos transport injects on
// purpose) costs a failover, not a worker; a worker that persistently
// delivers corrupt bytes is hardware-suspect and gets benched.
const defaultDigestFailureLimit = 3

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Workers is the static peer list: base URLs of the worker fleet
	// (e.g. "http://sim-3:8080"). Required, order-insensitive — routing
	// keys on the URL, not the position.
	Workers []string
	// Policy routes frames to workers (nil = rendezvous affinity, which
	// co-locates each campaign's frames on one worker's trace cache).
	// Tests substitute their own to seat specific workers.
	Policy Policy
	// Obs receives the coordinator's fabric counters and per-worker
	// gauges (nil = a fresh metrics-only registry). Pass the campaign
	// server's registry so /metrics exports the fleet state.
	Obs *obs.Registry
	// Client is the HTTP client for dispatch and heartbeats (nil = a
	// client with a 5-minute timeout; per-frame simulation is slow).
	Client *http.Client
	// HeartbeatInterval is the health-probe cadence (0 =
	// defaultHeartbeatInterval; negative disables the loop — workers are
	// then only marked down by failed dispatches, and recover only via
	// an explicit Probe).
	HeartbeatInterval time.Duration

	// AuditFraction re-dispatches this fraction of frames to a second
	// worker and cross-checks result digests for byte-identity — the
	// byzantine-worker defense. 0 disables auditing; 1 audits every
	// frame. Sampling is seed-keyed on (AuditSeed, fingerprint, frame),
	// so an audit schedule is replayable like everything else.
	AuditFraction float64
	// AuditSeed keys the audit sampler (0 is a valid seed).
	AuditSeed uint64
	// DigestFailureLimit quarantines a worker after this many digest
	// verification failures (0 = defaultDigestFailureLimit).
	DigestFailureLimit int

	// Log, when non-nil, receives coordinator log lines; it must
	// tolerate concurrent writes.
	Log io.Writer
}

// member is one worker as the coordinator tracks it.
type member struct {
	name string // normalized base URL; the routing identity

	down        atomic.Bool
	draining    atomic.Bool
	quarantined atomic.Bool
	inflight    atomic.Int64
	digestFails atomic.Int64

	up   *obs.Gauge
	load *obs.Gauge
}

// Coordinator dispatches work units across the worker fleet and folds
// fleet state into the observability registry. It implements
// serve.Dispatcher, so plugging it into serve.Config turns the campaign
// service into the cluster's coordinator.
//
// Failure handling per dispatch: a worker that refuses the unit
// deterministically (4xx — bad unit, fingerprint skew) fails the frame
// outright, surfacing through the supervisor's ordinary retry and
// quarantine path. A worker that dies (network error, 5xx) is marked
// down and the dispatch fails over to the policy's next candidate; a
// draining worker (503) fails over without being marked down. When no
// candidates remain the dispatch returns resilience.WorkerLost, which
// the supervisor requeues without charging the frame's attempt budget —
// the frame re-enters the pool as soon as any worker comes back.
//
// On top of availability failures sits the trust layer. Every result
// carries a canonical content digest; a result whose digest does not
// verify is treated as a corrupt delivery — failover to the next
// candidate without burying the worker, until DigestFailureLimit
// failures quarantine it. A seed-keyed sampler audits AuditFraction of
// frames by re-dispatching them to a second worker and cross-checking
// digests; on divergence a third worker arbitrates and the minority
// worker is quarantined. Quarantine is terminal: the worker is marked
// down, skipped by heartbeat resurrection, and its in-flight frames
// requeue through the ordinary WorkerLost/failover paths.
type Coordinator struct {
	cfg     CoordinatorConfig
	policy  Policy
	client  *http.Client
	reg     *obs.Registry
	members []*member

	live        *obs.Gauge
	quarantined *obs.Gauge

	dispatched, failovers  *obs.Counter
	lost, refused          *obs.Counter
	auditSampled, auditBad *obs.Counter
	digestFailed           *obs.Counter

	// ctx is cancelled by Close, bounding the heartbeat loop and any
	// in-flight probe — a probe can't outlive its coordinator.
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewCoordinator builds a coordinator over the worker fleet and starts
// its heartbeat loop (unless disabled). Callers own Close.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fabric: coordinator needs at least one worker URL")
	}
	if cfg.AuditFraction < 0 || cfg.AuditFraction > 1 {
		return nil, fmt.Errorf("fabric: audit fraction %v out of [0,1]", cfg.AuditFraction)
	}
	if cfg.DigestFailureLimit < 0 {
		return nil, fmt.Errorf("fabric: digest failure limit %d must be >= 0", cfg.DigestFailureLimit)
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewWith(obs.Options{TraceCapacity: -1})
	}
	policy := cfg.Policy
	if policy == nil {
		policy = affinity{}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}
	c := &Coordinator{
		cfg:          cfg,
		policy:       policy,
		client:       client,
		reg:          reg,
		live:         reg.Gauge("fabric.workers.live"),
		quarantined:  reg.Gauge("fabric.workers.quarantined"),
		dispatched:   reg.Counter("fabric.dispatch.sent"),
		failovers:    reg.Counter("fabric.dispatch.failover"),
		lost:         reg.Counter("fabric.dispatch.lost"),
		refused:      reg.Counter("fabric.dispatch.refused"),
		auditSampled: reg.Counter("fabric.audit.sampled"),
		auditBad:     reg.Counter("fabric.audit.mismatch"),
		digestFailed: reg.Counter("fabric.digest.failed"),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	seen := map[string]bool{}
	for _, raw := range cfg.Workers {
		name := strings.TrimRight(strings.TrimSpace(raw), "/")
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		i := len(c.members)
		m := &member{
			name: name,
			up:   reg.Gauge(fmt.Sprintf("fabric.worker.%d.up", i)),
			load: reg.Gauge(fmt.Sprintf("fabric.worker.%d.inflight", i)),
		}
		m.up.Set(1)
		c.members = append(c.members, m)
	}
	if len(c.members) == 0 {
		return nil, errors.New("fabric: coordinator needs at least one worker URL")
	}
	c.live.Set(int64(len(c.members)))
	interval := cfg.HeartbeatInterval
	if interval == 0 {
		interval = defaultHeartbeatInterval
	}
	if interval > 0 {
		c.wg.Add(1)
		go c.heartbeatLoop(interval)
	}
	return c, nil
}

// Close stops the heartbeat loop and cancels any in-flight probe. Safe
// to call more than once.
func (c *Coordinator) Close() {
	c.closeOnce.Do(c.cancel)
	c.wg.Wait()
}

// Workers returns the normalized peer list in routing order.
func (c *Coordinator) Workers() []string {
	names := make([]string, len(c.members))
	for i, m := range c.members {
		names[i] = m.name
	}
	return names
}

// quarantinedNames returns the names of quarantined workers in routing
// order.
func (c *Coordinator) quarantinedNames() []string {
	var names []string
	for _, m := range c.members {
		if m.quarantined.Load() {
			names = append(names, m.name)
		}
	}
	return names
}

// FrameRunner implements serve.Dispatcher: the returned frame function
// ships each frame to the fleet and merges the worker's observability
// snapshot into the supervisor's per-frame registry — the same
// MergeSnapshot path a checkpoint resume replays, so a distributed
// campaign's merged registry is byte-identical to a local run's.
func (c *Coordinator) FrameRunner(fp string, req *serve.CampaignRequest) megsim.ResilientFrameFunc {
	return func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		u := &WorkUnit{
			Fingerprint: fp,
			Frame:       frame,
			Workload:    req.Workload,
			GPU:         req.GPU,
			Obs:         reg.Enabled(),
		}
		res, err := c.dispatch(ctx, u)
		if err != nil {
			return tbr.FrameStats{}, err
		}
		if res.Obs != nil {
			reg.MergeSnapshot(res.Obs)
		}
		return res.Stats, nil
	}
}

var _ serve.Dispatcher = (*Coordinator)(nil)

// dispatch routes one work unit to a worker, failing over across the
// fleet as described on Coordinator, then applies the audit sampler:
// sampled frames are re-dispatched to a second worker and the two
// result digests must match byte for byte. On a mismatch a third worker
// arbitrates — the minority worker is quarantined and the majority
// result is the answer. A sampled frame is never merged unaudited: when
// the audit can't be seated, or a dispute finds no arbiter, the frame
// comes back as resilience.WorkerLost and requeues.
func (c *Coordinator) dispatch(ctx context.Context, u *WorkUnit) (*workResult, error) {
	res, primary, err := c.dispatchOnce(ctx, u, nil)
	if err != nil {
		return nil, err
	}
	if !c.auditSample(u) {
		return res, nil
	}
	c.auditSampled.Inc()
	exclude := map[int]bool{primary: true}
	audit, auditor, err := c.dispatchOnce(ctx, u, exclude)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		// The fleet can't seat a second opinion right now (single live
		// worker, everyone busy dying). A sampled frame is never merged
		// unaudited — that would be exactly the opening a byzantine
		// primary waits for — so the frame requeues until the fleet can
		// cross-check it.
		c.logf("fabric: audit of %s frame %d could not be seated, requeueing: %v", u.Fingerprint, u.Frame, err)
		c.lost.Inc()
		return nil, resilience.WorkerLost(fmt.Errorf("audit of frame %d could not be seated: %w", u.Frame, err))
	}
	if audit.Digest == res.Digest {
		return res, nil
	}
	c.auditBad.Inc()
	pm, am := c.members[primary], c.members[auditor]
	c.logf("fabric: audit mismatch on %s frame %d: %s says %s, %s says %s",
		u.Fingerprint, u.Frame, pm.name, res.Digest, am.name, audit.Digest)
	exclude[auditor] = true
	tie, _, terr := c.dispatchOnce(ctx, u, exclude)
	if terr == nil {
		switch tie.Digest {
		case res.Digest:
			c.quarantine(am, fmt.Errorf("audit minority on %s frame %d (digest %s vs majority %s)",
				u.Fingerprint, u.Frame, audit.Digest, res.Digest))
			return res, nil
		case audit.Digest:
			c.quarantine(pm, fmt.Errorf("audit minority on %s frame %d (digest %s vs majority %s)",
				u.Fingerprint, u.Frame, res.Digest, audit.Digest))
			return audit, nil
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	// Two-way fleet, or a three-way split: no majority, so no result is
	// trustworthy and nobody can be blamed. Requeue — never merge a
	// disputed frame.
	c.lost.Inc()
	return nil, resilience.WorkerLost(fmt.Errorf(
		"audit of %s frame %d unresolved: %s vs %s with no arbiter", u.Fingerprint, u.Frame, res.Digest, audit.Digest))
}

// auditSample decides deterministically whether a unit is audited: a
// pure (AuditSeed, fingerprint, frame) roll against AuditFraction, the
// same splitmix64-over-FNV construction the chaos and tile fault rolls
// use, so an audit schedule replays exactly.
func (c *Coordinator) auditSample(u *WorkUnit) bool {
	f := c.cfg.AuditFraction
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(u.Fingerprint))
	x := c.cfg.AuditSeed ^ h.Sum64() ^ uint64(u.Frame)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < f
}

// dispatchOnce drives one unit to one digest-valid result by
// sequential failover across the policy's candidates, one attempt in
// flight at a time. exclude lists member indexes this dispatch must not
// use (audit re-dispatches exclude the workers already consulted).
// Returns the member index that produced the result.
func (c *Coordinator) dispatchOnce(ctx context.Context, u *WorkUnit, exclude map[int]bool) (*workResult, int, error) {
	tried := make(map[int]bool, len(c.members))
	for i := range exclude {
		tried[i] = true
	}
	lastErr := errors.New("no live workers")
	for {
		if err := ctx.Err(); err != nil {
			return nil, -1, err
		}
		idx := c.pick(u.Fingerprint, tried)
		if idx < 0 {
			c.lost.Inc()
			return nil, -1, resilience.WorkerLost(lastErr)
		}
		tried[idx] = true
		c.dispatched.Inc()
		m := c.members[idx]
		res, unitErr, dispErr := c.post(ctx, m, u)
		switch {
		case unitErr != nil:
			// Deterministic refusal: the frame itself is the problem, so
			// failover would only re-fail it N times. Let the supervisor's
			// retry/quarantine path own it.
			c.refused.Inc()
			return nil, idx, unitErr
		case dispErr == nil:
			if lastErr = c.verifyResult(m, u, res); lastErr == nil {
				return res, idx, nil
			}
		case errors.Is(dispErr, errDraining):
			m.draining.Store(true)
			c.logf("fabric: %s draining, failing over", m.name)
			lastErr = dispErr
		default:
			if err := ctx.Err(); err != nil {
				// The transport error was our own cancellation, not the
				// worker's death.
				return nil, -1, err
			}
			c.markDown(m, dispErr)
			lastErr = dispErr
		}
		c.failovers.Inc()
	}
}

// errDigest marks a result whose canonical digest did not verify: a
// corrupt delivery, not a dead worker — eligible for failover without
// marking the worker down.
var errDigest = errors.New("fabric: result digest mismatch")

// verifyResult recomputes the result's canonical digest over what was
// actually decoded and compares it to the digest the worker carried. A
// mismatch (or a missing digest) fails verification, counts against the
// worker's digest-failure budget, and quarantines it at the limit.
func (c *Coordinator) verifyResult(m *member, u *WorkUnit, res *workResult) error {
	want := res.ComputeDigest()
	if res.Digest == want {
		return nil
	}
	c.digestFailed.Inc()
	limit := int64(c.cfg.DigestFailureLimit)
	if limit == 0 {
		limit = defaultDigestFailureLimit
	}
	if fails := m.digestFails.Add(1); fails >= limit {
		c.quarantine(m, fmt.Errorf("%d results failed digest verification", fails))
	}
	return fmt.Errorf("%w: %s frame %d carried %q, content digests to %q", errDigest, m.name, u.Frame, res.Digest, want)
}

// quarantine benches a worker permanently: marked down, excluded from
// heartbeat resurrection, reflected in the quarantine gauge. Frames it
// held fail over or requeue through the ordinary paths.
func (c *Coordinator) quarantine(m *member, cause error) {
	if m.quarantined.Swap(true) {
		return
	}
	m.down.Store(true)
	m.up.Set(0)
	c.logf("fabric: %s QUARANTINED: %v", m.name, cause)
	q := int64(0)
	for _, o := range c.members {
		if o.quarantined.Load() {
			q++
		}
	}
	c.quarantined.Set(q)
	c.refreshLive()
}

// pick builds the candidate view (live, untried members) and asks the
// policy. Draining members are candidates the policy must skip, so an
// all-draining fleet reads as "no pick" rather than an error.
func (c *Coordinator) pick(key string, tried map[int]bool) int {
	cands := make([]Candidate, 0, len(c.members))
	idxs := make([]int, 0, len(c.members))
	for i, m := range c.members {
		if tried[i] || m.down.Load() {
			continue
		}
		cands = append(cands, Candidate{Name: m.name, Draining: m.draining.Load()})
		idxs = append(idxs, i)
	}
	p := c.policy.Pick(key, cands)
	if p < 0 {
		return -1
	}
	return idxs[p]
}

// errDraining marks a 503 from a worker: back off, don't bury it.
var errDraining = errors.New("fabric: worker draining")

// post sends one unit to one member. It returns exactly one of:
// a result; a unit error (the worker deterministically refused this
// unit — 4xx); a dispatch error (the worker is unreachable, dying,
// draining, or answered a body the coordinator won't trust — eligible
// for failover).
func (c *Coordinator) post(ctx context.Context, m *member, u *WorkUnit) (res *workResult, unitErr, dispErr error) {
	m.inflight.Add(1)
	m.load.Set(m.inflight.Load())
	defer func() {
		m.inflight.Add(-1)
		m.load.Set(m.inflight.Load())
	}()
	body, err := json.Marshal(u)
	if err != nil {
		return nil, fmt.Errorf("fabric: encode work unit: %w", err), nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.name+"/fabric/v1/frames", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("fabric: build request: %w", err), nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	// Read one byte past the limit so an over-limit body is
	// distinguishable from one that happens to decode badly after a
	// silent cut: the former is the worker misbehaving (failover), not
	// a malformed reply to puzzle over.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBytes+1))
	if err != nil {
		return nil, nil, fmt.Errorf("read response from %s: %w", m.name, err)
	}
	if len(raw) > maxResultBytes {
		return nil, nil, fmt.Errorf("%s answered more than %d result bytes", m.name, maxResultBytes)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		out := &workResult{}
		if err := json.Unmarshal(raw, out); err != nil {
			return nil, nil, fmt.Errorf("malformed result from %s: %w", m.name, err)
		}
		if out.Frame != u.Frame {
			return nil, nil, fmt.Errorf("%s answered frame %d for frame %d", m.name, out.Frame, u.Frame)
		}
		return out, nil, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		return nil, nil, errDraining
	case resp.StatusCode >= http.StatusInternalServerError:
		return nil, nil, fmt.Errorf("%s answered %d: %s", m.name, resp.StatusCode, errBody(raw))
	default:
		return nil, fmt.Errorf("fabric: %s refused frame %d (%d): %s", m.name, u.Frame, resp.StatusCode, errBody(raw)), nil
	}
}

// errBody extracts the error message from a JSON error body, falling
// back to the raw bytes.
func errBody(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

func (c *Coordinator) markDown(m *member, cause error) {
	if !m.down.Swap(true) {
		c.logf("fabric: %s marked down: %v", m.name, cause)
	}
	m.up.Set(0)
	c.refreshLive()
}

// probe health-checks every member once, synchronously: a reachable
// worker comes (back) up with its draining flag refreshed, an
// unreachable one goes down. Quarantined workers are never probed and
// never resurrected — quarantine is a trust verdict, not a liveness
// one. The heartbeat loop calls this on its cadence; tests and a
// heartbeat-disabled coordinator call it directly.
func (c *Coordinator) probe(ctx context.Context) {
	for _, m := range c.members {
		if m.quarantined.Load() {
			continue
		}
		h, err := c.probeOne(ctx, m)
		if err != nil {
			if !m.down.Swap(true) {
				c.logf("fabric: %s failed heartbeat: %v", m.name, err)
			}
			m.up.Set(0)
			continue
		}
		if m.down.Swap(false) {
			c.logf("fabric: %s recovered", m.name)
		}
		m.draining.Store(h.Draining)
		m.up.Set(1)
	}
	c.refreshLive()
}

func (c *Coordinator) probeOne(ctx context.Context, m *member) (*healthStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.name+"/fabric/v1/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	h := &healthStatus{}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(h); err != nil {
		return nil, fmt.Errorf("malformed healthz: %w", err)
	}
	return h, nil
}

func (c *Coordinator) refreshLive() {
	live := int64(0)
	for _, m := range c.members {
		if !m.down.Load() {
			live++
		}
	}
	c.live.Set(live)
}

func (c *Coordinator) heartbeatLoop(interval time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.probe(c.ctx)
		}
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, format+"\n", args...)
	}
}
