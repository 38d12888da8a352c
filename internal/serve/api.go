package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gltrace"
	"repro/internal/workload"
	"repro/megsim"
)

// Request limits. Campaigns are small JSON documents; anything past
// these bounds is rejected at admission (HTTP 400), never simulated.
const (
	// maxRequestBytes bounds the request body.
	maxRequestBytes = 1 << 20
	// maxDim bounds the render-target edge in pixels.
	maxDim = 4096
	// maxPixels bounds width*height.
	maxPixels = 1 << 22
	// maxDivisor bounds the frame/detail divisors.
	maxDivisor = 1 << 20
	// maxRetries bounds per-frame attempts.
	maxRetries = 100
	// maxQuarantine bounds the pre-quarantine list length.
	maxQuarantine = 10000
	// maxStallTimeout bounds the watchdog timeout.
	maxStallTimeout = int64(time.Hour / time.Millisecond)
	// maxStreamStrata bounds the streaming stratum budget.
	maxStreamStrata = 1024
	// maxStreamReservoir bounds the per-stratum reservoir capacity.
	maxStreamReservoir = 256
)

// WorkloadSpec names the campaign's workload: exactly one of a Table II
// benchmark alias or a seed for workload.RandomProfile, plus optional
// scale overrides (zero fields inherit workload.DefaultScale — the same
// defaults the megsim CLI runs under).
type WorkloadSpec struct {
	// Benchmark is a Table II alias (asp, bbr1, hcr, ...).
	Benchmark string `json:"benchmark,omitempty"`
	// RandomSeed selects a seed-derived workload.RandomProfile instead
	// of a named benchmark.
	RandomSeed *uint64 `json:"random_seed,omitempty"`
	// Width, Height override the render-target size in pixels.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// FrameDiv, DetailDiv divide sequence length / per-frame detail.
	FrameDiv  int `json:"frame_div,omitempty"`
	DetailDiv int `json:"detail_div,omitempty"`
}

// GPUSpec selects the timing-simulator configuration: a named preset
// (empty = the Table I default) plus the same toggles the CLI exposes.
type GPUSpec struct {
	// Preset is a tbr preset name (mali450, lowend, highend, tbdr);
	// empty selects the Table I default configuration.
	Preset string `json:"preset,omitempty"`
	// TBDR enables PowerVR-style hidden surface removal.
	TBDR bool `json:"tbdr,omitempty"`
}

// ResilienceSpec carries the per-job supervisor options. Only
// Quarantine affects results (and thus the campaign fingerprint);
// retries and the watchdog shape execution, not outcomes.
type ResilienceSpec struct {
	// Retries is the attempts per frame before quarantine (0 = default).
	Retries int `json:"retries,omitempty"`
	// Quarantine pre-quarantines frames (routes around known-bad ones).
	Quarantine []int `json:"quarantine,omitempty"`
	// StallTimeoutMS arms the stalled-worker watchdog (0 = off).
	StallTimeoutMS int64 `json:"stall_timeout_ms,omitempty"`
}

// StreamSpec switches a campaign to streaming mode: the online
// bounded-memory stratifier replaces batch characterization and k-means
// selection. Zero-valued fields resolve to megsim.DefaultStreamConfig.
type StreamSpec struct {
	// MaxStrata is the stratum budget (0 = default).
	MaxStrata int `json:"max_strata,omitempty"`
	// ReservoirCap is the per-stratum candidate reservoir capacity
	// (0 = default).
	ReservoirCap int `json:"reservoir_cap,omitempty"`
}

// CampaignRequest is the job-submission document POSTed to
// /api/v1/campaigns. Zero-valued fields resolve to the same defaults
// the megsim CLI uses, and the campaign fingerprint is computed over
// the resolved values — so an explicit default and an omitted field
// address the same cached result.
type CampaignRequest struct {
	Workload   WorkloadSpec   `json:"workload"`
	Threshold  float64        `json:"threshold,omitempty"`
	Seed       uint64         `json:"seed,omitempty"`
	GPU        GPUSpec        `json:"gpu,omitempty"`
	Resilience ResilienceSpec `json:"resilience,omitempty"`
	// Stream, when present, runs the campaign in streaming mode: the
	// daemon replays the whole generated workload through the online
	// stratifier, then simulates the finalized strata's representatives.
	Stream *StreamSpec `json:"stream,omitempty"`
}

// DecodeCampaignRequest reads, decodes and validates one campaign
// request. Every failure — malformed JSON, unknown fields, trailing
// garbage, absurd sizes, non-finite numbers, unknown benchmark or GPU
// preset — returns an error (the server answers 400); no input panics.
func DecodeCampaignRequest(r io.Reader) (*CampaignRequest, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxRequestBytes+1))
	if err != nil {
		return nil, fmt.Errorf("decode campaign: %w", err)
	}
	if len(body) > maxRequestBytes {
		return nil, fmt.Errorf("decode campaign: body exceeds %d bytes", maxRequestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	req := &CampaignRequest{}
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("decode campaign: %w", err)
	}
	if dec.More() {
		return nil, errors.New("decode campaign: trailing data after request")
	}
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("invalid campaign: %w", err)
	}
	return req, nil
}

// Validate bounds-checks the request without doing any heavy work.
func (c *CampaignRequest) Validate() error {
	w := &c.Workload
	switch {
	case w.Benchmark == "" && w.RandomSeed == nil:
		return errors.New("workload: need benchmark or random_seed")
	case w.Benchmark != "" && w.RandomSeed != nil:
		return errors.New("workload: benchmark and random_seed are exclusive")
	case w.Benchmark != "":
		if _, err := workload.Get(w.Benchmark); err != nil {
			return err // already carries the "workload:" prefix
		}
	}
	if w.Width < 0 || w.Width > maxDim || w.Height < 0 || w.Height > maxDim {
		return fmt.Errorf("workload: dimensions %dx%d out of [0, %d]", w.Width, w.Height, maxDim)
	}
	if w.Width*w.Height > maxPixels {
		return fmt.Errorf("workload: %dx%d exceeds %d pixels", w.Width, w.Height, maxPixels)
	}
	if w.FrameDiv < 0 || w.FrameDiv > maxDivisor || w.DetailDiv < 0 || w.DetailDiv > maxDivisor {
		return fmt.Errorf("workload: divisors out of [0, %d]", maxDivisor)
	}
	if math.IsNaN(c.Threshold) || math.IsInf(c.Threshold, 0) || c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("threshold %v out of (0, 1] (0 = default)", c.Threshold)
	}
	if c.GPU.Preset != "" {
		if _, err := megsim.GPUPreset(c.GPU.Preset); err != nil {
			return fmt.Errorf("gpu: %w", err)
		}
	}
	r := &c.Resilience
	if r.Retries < 0 || r.Retries > maxRetries {
		return fmt.Errorf("resilience: retries %d out of [0, %d]", r.Retries, maxRetries)
	}
	if len(r.Quarantine) > maxQuarantine {
		return fmt.Errorf("resilience: quarantine list longer than %d", maxQuarantine)
	}
	for _, f := range r.Quarantine {
		if f < 0 {
			return fmt.Errorf("resilience: negative quarantined frame %d", f)
		}
	}
	if r.StallTimeoutMS < 0 || r.StallTimeoutMS > maxStallTimeout {
		return fmt.Errorf("resilience: stall_timeout_ms %d out of [0, %d]", r.StallTimeoutMS, maxStallTimeout)
	}
	if st := c.Stream; st != nil {
		if st.MaxStrata < 0 || st.MaxStrata > maxStreamStrata {
			return fmt.Errorf("stream: max_strata %d out of [0, %d]", st.MaxStrata, maxStreamStrata)
		}
		if st.ReservoirCap < 0 || st.ReservoirCap > maxStreamReservoir {
			return fmt.Errorf("stream: reservoir_cap %d out of [0, %d]", st.ReservoirCap, maxStreamReservoir)
		}
	}
	return nil
}

// resolvedWorkload is the workload spec with every default applied —
// the canonical form the workload key hashes.
type resolvedWorkload struct {
	Benchmark  string  `json:"benchmark,omitempty"`
	RandomSeed *uint64 `json:"random_seed,omitempty"`
	Scale      workload.Scale
}

func (c *CampaignRequest) resolveWorkload() resolvedWorkload {
	sc := workload.DefaultScale
	w := c.Workload
	if w.Width > 0 {
		sc.Width = w.Width
	}
	if w.Height > 0 {
		sc.Height = w.Height
	}
	if w.FrameDiv > 0 {
		sc.FrameDivisor = w.FrameDiv
	}
	if w.DetailDiv > 0 {
		sc.DetailDivisor = w.DetailDiv
	}
	return resolvedWorkload{Benchmark: w.Benchmark, RandomSeed: w.RandomSeed, Scale: sc}
}

// WorkloadKey content-addresses the resolved workload: campaigns that
// generate the identical trace share one characterization, whatever
// GPU or methodology settings they run under.
func (c *CampaignRequest) WorkloadKey() string {
	return hashKey("wl", c.resolveWorkload())
}

// exploreKey content-addresses the campaign's cluster-count
// exploration: the resolved workload and core.ExplorationKey of the
// campaign's configuration, which leaves out the threshold (it only
// cuts the explored scores afterwards). Campaigns that differ only in
// threshold or GPU settings share one exploration.
func (c *CampaignRequest) exploreKey() string {
	return hashKey("exp", struct {
		Workload resolvedWorkload
		Config   core.Config
	}{c.resolveWorkload(), core.ExplorationKey(c.MegsimConfig())})
}

// Fingerprint content-addresses the campaign's result: the resolved
// workload, methodology settings, the GPU settings and the sorted
// pre-quarantine set. Two requests with equal fingerprints
// are guaranteed the identical report, so the service deduplicates and
// caches on this key. Execution-shaping knobs (retries, watchdog)
// never enter the hash.
func (c *CampaignRequest) Fingerprint() string {
	quarantine := append([]int(nil), c.Resilience.Quarantine...)
	sort.Ints(quarantine)
	if c.Stream != nil {
		// Streaming campaigns hash under their own prefix: the resolved
		// stream budget and seed replace the batch search threshold.
		scfg := c.StreamConfig()
		return hashKey("smc", struct {
			Workload     resolvedWorkload
			Seed         uint64
			MaxStrata    int
			ReservoirCap int
			Preset       string
			TBDR         bool
			Quarantine   []int
		}{c.resolveWorkload(), scfg.Seed, scfg.MaxStrata, scfg.ReservoirCap, c.GPU.Preset, c.GPU.TBDR, quarantine})
	}
	return hashKey("cmp", struct {
		Workload   resolvedWorkload
		Threshold  float64
		Seed       uint64
		Preset     string
		TBDR       bool
		Quarantine []int
	}{c.resolveWorkload(), c.threshold(), c.seed(), c.GPU.Preset, c.GPU.TBDR, quarantine})
}

// StreamConfig resolves the streaming stratifier configuration (the
// campaign seed doubles as the reservoir-priority seed).
func (c *CampaignRequest) StreamConfig() megsim.StreamConfig {
	scfg := megsim.DefaultStreamConfig()
	scfg.Seed = c.seed()
	if c.Stream != nil {
		if c.Stream.MaxStrata > 0 {
			scfg.MaxStrata = c.Stream.MaxStrata
		}
		if c.Stream.ReservoirCap > 0 {
			scfg.ReservoirCap = c.Stream.ReservoirCap
		}
	}
	return scfg
}

// hashKey hashes a canonical JSON encoding under a short prefix.
func hashKey(prefix string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// All hashed values are plain data; failure is a programming error.
		panic(fmt.Sprintf("serve: hash key: %v", err))
	}
	sum := sha256.Sum256(b)
	return prefix + "-" + hex.EncodeToString(sum[:12])
}

func (c *CampaignRequest) threshold() float64 {
	if c.Threshold == 0 {
		return megsim.DefaultConfig().Search.Threshold
	}
	return c.Threshold
}

func (c *CampaignRequest) seed() uint64 {
	if c.Seed == 0 {
		return megsim.DefaultConfig().Seed
	}
	return c.Seed
}

// BuildTrace synthesizes the campaign's workload trace (deterministic
// in the resolved spec; the service caches the result by WorkloadKey).
func (c *CampaignRequest) BuildTrace() (*gltrace.Trace, error) {
	rw := c.resolveWorkload()
	var p workload.Profile
	if rw.Benchmark != "" {
		got, err := workload.Get(rw.Benchmark)
		if err != nil {
			return nil, err
		}
		p = got
	} else {
		p = workload.RandomProfile(*rw.RandomSeed)
	}
	return workload.Generate(p, rw.Scale)
}

// MegsimConfig resolves the methodology configuration.
func (c *CampaignRequest) MegsimConfig() megsim.Config {
	cfg := megsim.DefaultConfig()
	cfg.Search.Threshold = c.threshold()
	cfg.Seed = c.seed()
	return cfg
}

// GPUConfig resolves the timing-simulator configuration.
func (c *CampaignRequest) GPUConfig() (megsim.GPUConfig, error) {
	gpu := megsim.DefaultGPUConfig()
	if c.GPU.Preset != "" {
		got, err := megsim.GPUPreset(c.GPU.Preset)
		if err != nil {
			return gpu, err
		}
		gpu = got
	}
	if c.GPU.TBDR {
		gpu.DeferredShading = true
	}
	return gpu, nil
}

// resilienceConfig resolves the per-job supervisor configuration (the
// server fills in checkpointing and observability).
func (c *CampaignRequest) resilienceConfig() megsim.ResilienceConfig {
	return megsim.ResilienceConfig{
		MaxAttempts:  c.Resilience.Retries,
		Quarantine:   append([]int(nil), c.Resilience.Quarantine...),
		StallTimeout: time.Duration(c.Resilience.StallTimeoutMS) * time.Millisecond,
	}
}
