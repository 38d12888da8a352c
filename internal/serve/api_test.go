package serve

import (
	"math"
	"strings"
	"testing"

	"repro/megsim"
)

const minimalCampaign = `{"workload":{"benchmark":"hcr"}}`

func decode(t *testing.T, body string) *CampaignRequest {
	t.Helper()
	req, err := DecodeCampaignRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("DecodeCampaignRequest(%q): %v", body, err)
	}
	return req
}

func TestDecodeCampaignRequestValid(t *testing.T) {
	req := decode(t, minimalCampaign)
	if req.Workload.Benchmark != "hcr" {
		t.Fatalf("benchmark = %q, want hcr", req.Workload.Benchmark)
	}
	req = decode(t, `{
		"workload": {"benchmark": "asp", "width": 64, "height": 32, "frame_div": 40, "detail_div": 4},
		"threshold": 0.25,
		"seed": 7,
		"gpu": {"preset": "tbdr", "tbdr": true, "tile_workers": 3},
		"resilience": {"retries": 5, "quarantine": [3, 1], "stall_timeout_ms": 1000}
	}`)
	if req.Threshold != 0.25 || req.GPU.TileWorkers != 3 || len(req.Resilience.Quarantine) != 2 {
		t.Fatalf("decoded fields wrong: %+v", req)
	}
	req = decode(t, `{"workload":{"random_seed":42}}`)
	if req.Workload.RandomSeed == nil || *req.Workload.RandomSeed != 42 {
		t.Fatalf("random_seed not decoded: %+v", req.Workload)
	}
}

func TestDecodeCampaignRequestRejects(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"empty", ``, "decode"},
		{"malformed", `{"workload":`, "decode"},
		{"wrong type", `[]`, "decode"},
		{"unknown field", `{"workload":{"benchmark":"hcr"},"bogus":1}`, "unknown field"},
		{"trailing data", minimalCampaign + `{"x":1}`, "trailing data"},
		{"oversized body", `{"workload":{"benchmark":"` + strings.Repeat("x", MaxRequestBytes) + `"}}`, "exceeds"},
		{"no workload", `{}`, "benchmark or random_seed"},
		{"benchmark and seed", `{"workload":{"benchmark":"hcr","random_seed":1}}`, "exclusive"},
		{"unknown benchmark", `{"workload":{"benchmark":"doom"}}`, "workload"},
		{"huge dimension", `{"workload":{"benchmark":"hcr","width":5000}}`, "out of"},
		{"negative dimension", `{"workload":{"benchmark":"hcr","height":-1}}`, "out of"},
		{"too many pixels", `{"workload":{"benchmark":"hcr","width":4096,"height":4096}}`, "pixels"},
		{"huge divisor", `{"workload":{"benchmark":"hcr","frame_div":2000000}}`, "divisors"},
		{"infinite threshold", `{"workload":{"benchmark":"hcr"},"threshold":1e999}`, "decode"},
		{"threshold too big", `{"workload":{"benchmark":"hcr"},"threshold":1.5}`, "threshold"},
		{"negative threshold", `{"workload":{"benchmark":"hcr"},"threshold":-0.5}`, "threshold"},
		{"unknown preset", `{"workload":{"benchmark":"hcr"},"gpu":{"preset":"rtx5090"}}`, "gpu"},
		{"huge tile workers", `{"workload":{"benchmark":"hcr"},"gpu":{"tile_workers":4096}}`, "tile_workers"},
		{"negative retries", `{"workload":{"benchmark":"hcr"},"resilience":{"retries":-1}}`, "retries"},
		{"huge retries", `{"workload":{"benchmark":"hcr"},"resilience":{"retries":1000}}`, "retries"},
		{"negative quarantined frame", `{"workload":{"benchmark":"hcr"},"resilience":{"quarantine":[-3]}}`, "quarantine"},
		{"negative stall timeout", `{"workload":{"benchmark":"hcr"},"resilience":{"stall_timeout_ms":-1}}`, "stall"},
		{"removed stream field", `{"workload":{"benchmark":"hcr"},"stream":{"eager_every":8}}`, `unknown field "eager_every"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeCampaignRequest(strings.NewReader(tc.body))
			if err == nil {
				t.Fatalf("DecodeCampaignRequest accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// JSON cannot encode NaN, so the NaN guard is only reachable through
// Validate directly — keep it covered anyway: a future transport must
// not smuggle NaN thresholds past admission.
func TestValidateNaN(t *testing.T) {
	req := decode(t, minimalCampaign)
	req.Threshold = math.NaN()
	if err := req.Validate(); err == nil {
		t.Fatal("Validate accepted NaN threshold")
	}
	req.Threshold = math.Inf(1)
	if err := req.Validate(); err == nil {
		t.Fatal("Validate accepted +Inf threshold")
	}
}

func TestFingerprintNormalization(t *testing.T) {
	base := decode(t, minimalCampaign)

	// Checkpoint files are named by fingerprint, so these must never move.
	for body, want := range map[string]string{
		`{"workload":{"benchmark":"hcr"}}`:             "cmp-036422a6a8f71cf2f4023ab1",
		`{"workload":{"benchmark":"hcr"},"stream":{}}`: "smc-5fd03261c16ff8f39aa75058",
		`{"workload":{"benchmark":"hcr"},"gpu":{"tile_workers":4},"resilience":{"quarantine":[3,1]},"stream":{"max_strata":8,"reservoir_cap":4}}`: "smc-d044617060949d6d6f421c54",
	} {
		if got := decode(t, body).Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %s, want %s", body, got, want)
		}
	}

	// Explicit defaults address the same result as omitted fields.
	explicit := decode(t, minimalCampaign)
	explicit.Threshold = megsim.DefaultConfig().Search.Threshold
	explicit.Seed = megsim.DefaultConfig().Seed
	if base.Fingerprint() != explicit.Fingerprint() {
		t.Fatal("explicit defaults changed the fingerprint")
	}

	// Every tile-worker count >= 1 is byte-identical, so it normalizes
	// out; 0 (serial warm-cache raster) is a genuinely different result.
	tw1 := decode(t, `{"workload":{"benchmark":"hcr"},"gpu":{"tile_workers":1}}`)
	tw4 := decode(t, `{"workload":{"benchmark":"hcr"},"gpu":{"tile_workers":4}}`)
	if tw1.Fingerprint() != tw4.Fingerprint() {
		t.Fatal("tile_workers 1 and 4 fingerprint differently")
	}
	if base.Fingerprint() == tw1.Fingerprint() {
		t.Fatal("tile_workers 0 and 1 share a fingerprint (serial raster differs)")
	}

	// Quarantine affects results (order-independently); retries and the
	// watchdog shape execution only.
	q13 := decode(t, `{"workload":{"benchmark":"hcr"},"resilience":{"quarantine":[1,3]}}`)
	q31 := decode(t, `{"workload":{"benchmark":"hcr"},"resilience":{"quarantine":[3,1]}}`)
	if q13.Fingerprint() != q31.Fingerprint() {
		t.Fatal("quarantine order changed the fingerprint")
	}
	if q13.Fingerprint() == base.Fingerprint() {
		t.Fatal("quarantine did not change the fingerprint")
	}
	retried := decode(t, `{"workload":{"benchmark":"hcr"},"resilience":{"retries":7,"stall_timeout_ms":500}}`)
	if retried.Fingerprint() != base.Fingerprint() {
		t.Fatal("execution-shaping knobs changed the fingerprint")
	}

	// Result-affecting settings must all separate.
	for name, body := range map[string]string{
		"seed":      `{"workload":{"benchmark":"hcr"},"seed":99}`,
		"threshold": `{"workload":{"benchmark":"hcr"},"threshold":0.5}`,
		"benchmark": `{"workload":{"benchmark":"asp"}}`,
		"scale":     `{"workload":{"benchmark":"hcr","width":64}}`,
		"preset":    `{"workload":{"benchmark":"hcr"},"gpu":{"preset":"lowend"}}`,
		"tbdr":      `{"workload":{"benchmark":"hcr"},"gpu":{"tbdr":true}}`,
	} {
		if decode(t, body).Fingerprint() == base.Fingerprint() {
			t.Fatalf("%s change did not change the fingerprint", name)
		}
	}
}

func TestWorkloadKeyIgnoresGPU(t *testing.T) {
	a := decode(t, minimalCampaign)
	b := decode(t, `{"workload":{"benchmark":"hcr"},"seed":5,"gpu":{"preset":"highend","tile_workers":4}}`)
	if a.WorkloadKey() != b.WorkloadKey() {
		t.Fatal("GPU/methodology settings leaked into the workload key")
	}
	c := decode(t, `{"workload":{"benchmark":"hcr","detail_div":4}}`)
	if a.WorkloadKey() == c.WorkloadKey() {
		t.Fatal("scale change did not change the workload key")
	}
}

func TestBuildTraceDeterministic(t *testing.T) {
	req := decode(t, `{"workload":{"random_seed":11,"width":64,"height":32,"frame_div":40,"detail_div":4}}`)
	tr1, err := req.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := req.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Name != tr2.Name || tr1.NumFrames() != tr2.NumFrames() {
		t.Fatalf("BuildTrace not deterministic: %s/%d vs %s/%d",
			tr1.Name, tr1.NumFrames(), tr2.Name, tr2.NumFrames())
	}
	gpu, err := req.GPUConfig()
	if err != nil {
		t.Fatal(err)
	}
	if megsim.RunFingerprint(tr1, gpu) != megsim.RunFingerprint(tr2, gpu) {
		t.Fatal("rebuilt trace fingerprints differently")
	}
}
