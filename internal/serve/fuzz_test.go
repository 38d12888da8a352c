package serve

import (
	"strings"
	"testing"
)

// FuzzDecodeCampaignRequest hammers the admission decoder: whatever the
// body — malformed JSON, absurd sizes, non-finite numbers, unknown
// fields, trailing garbage — decoding must either return an error (the
// server answers 400) or yield a request that is safe to hash, resolve
// and re-validate. Nothing may panic.
func FuzzDecodeCampaignRequest(f *testing.F) {
	seeds := []string{
		minimalCampaign,
		serviceCampaignBody(""),
		`{"workload":{"random_seed":42}}`,
		`{"workload":{"random_seed":18446744073709551615}}`,
		`{"workload":{"benchmark":"asp","width":64,"height":32},"threshold":0.5,"seed":9,` +
			`"gpu":{"preset":"tbdr","tbdr":true},` +
			`"resilience":{"retries":3,"quarantine":[5,1,5],"stall_timeout_ms":250}}`,
		``,
		`{`,
		`null`,
		`[]`,
		`"campaign"`,
		`{"workload":{}}`,
		`{"workload":{"benchmark":"hcr"},"bogus":true}`,
		minimalCampaign + `{"x":1}`,
		`{"workload":{"benchmark":"hcr"},"threshold":1e999}`,
		`{"workload":{"benchmark":"hcr"},"threshold":-0.0001}`,
		`{"workload":{"benchmark":"hcr","width":2147483647,"height":2147483647}}`,
		`{"workload":{"benchmark":"hcr","frame_div":-9223372036854775808}}`,
		`{"workload":{"benchmark":"` + strings.Repeat("a", 4096) + `"}}`,
		`{"workload":{"benchmark":"hcr"},"resilience":{"quarantine":[-1,0,1]}}`,
		`{"workload":{"benchmark":"hcr"},"gpu":{"preset":"tiled"}}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeCampaignRequest(strings.NewReader(body))
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		// An accepted request must round-trip every resolver without
		// panicking, and must still pass its own validation.
		if err := req.Validate(); err != nil {
			t.Fatalf("decoded request fails revalidation: %v", err)
		}
		if fp := req.Fingerprint(); !strings.HasPrefix(fp, "cmp-") {
			t.Fatalf("malformed fingerprint %q", fp)
		}
		if wk := req.WorkloadKey(); !strings.HasPrefix(wk, "wl-") {
			t.Fatalf("malformed workload key %q", wk)
		}
		if _, err := req.GPUConfig(); err != nil {
			t.Fatalf("validated request has unusable GPU config: %v", err)
		}
		_ = req.MegsimConfig()
		_ = req.resilienceConfig()
	})
}
