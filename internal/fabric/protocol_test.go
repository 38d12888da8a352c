package fabric

import (
	"strings"
	"testing"
)

// validUnit is the canonical well-formed work unit body for tests; the
// fingerprint is syntactically valid but arbitrary (protocol validation
// never simulates).
const validUnit = `{"fingerprint":"megsim-0123456789abcdef01234567","frame":3,` +
	`"workload":{"benchmark":"hcr","width":64,"height":32},"gpu":{"preset":"tbdr"},"obs":true}`

func TestDecodeWorkUnit(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"valid", validUnit, true},
		{"valid minimal", `{"fingerprint":"megsim-ff","frame":0,"workload":{"benchmark":"asp"}}`, true},
		{"empty", ``, false},
		{"truncated", `{"fingerprint":"megsim-ff"`, false},
		{"null", `null`, false},
		{"array", `[]`, false},
		{"unknown field", `{"fingerprint":"megsim-ff","frame":0,"workload":{"benchmark":"asp"},"bogus":1}`, false},
		{"trailing data", validUnit + `{"x":1}`, false},
		{"bad fingerprint prefix", `{"fingerprint":"cmp-ff","frame":0,"workload":{"benchmark":"asp"}}`, false},
		{"fingerprint too long", `{"fingerprint":"megsim-` + strings.Repeat("a", 80) + `","frame":0,"workload":{"benchmark":"asp"}}`, false},
		{"negative frame", `{"fingerprint":"megsim-ff","frame":-1,"workload":{"benchmark":"asp"}}`, false},
		{"absurd frame", `{"fingerprint":"megsim-ff","frame":9999999999,"workload":{"benchmark":"asp"}}`, false},
		{"no workload", `{"fingerprint":"megsim-ff","frame":0}`, false},
		{"unknown benchmark", `{"fingerprint":"megsim-ff","frame":0,"workload":{"benchmark":"nope"}}`, false},
		{"bad gpu preset", `{"fingerprint":"megsim-ff","frame":0,"workload":{"benchmark":"asp"},"gpu":{"preset":"nope"}}`, false},
		{"oversized dims", `{"fingerprint":"megsim-ff","frame":0,"workload":{"benchmark":"asp","width":99999,"height":99999}}`, false},
		{"body too large", `{"fingerprint":"megsim-` + strings.Repeat("a", MaxWorkUnitBytes) + `"}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u, err := decodeWorkUnit(strings.NewReader(tc.body))
			if tc.ok && err != nil {
				t.Fatalf("DecodeWorkUnit: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("DecodeWorkUnit accepted %q", tc.body)
			}
			if err == nil && u == nil {
				t.Fatal("nil unit without error")
			}
		})
	}
}

// TestDecodeWorkUnitRejectsRemovedGPUField: the raster stage has one
// timing model and no tile-worker knob, so a unit carrying the removed
// field is refused with an error that names it.
func TestDecodeWorkUnitRejectsRemovedGPUField(t *testing.T) {
	const field = `unknown field "tile_workers"`
	body := `{"fingerprint":"megsim-ff","frame":0,"workload":{"benchmark":"asp"},"gpu":{"tile_workers":4}}`
	if _, err := decodeWorkUnit(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), field) {
		t.Fatalf("DecodeWorkUnit(%s) = %v, want an error containing %s", body, err, field)
	}
}

// FuzzDecodeWorkUnit hammers the worker's decoder exactly like the
// campaign service's admission fuzzer: any body must either error (the
// worker answers 400) or yield a unit that revalidates and resolves
// without panicking.
func FuzzDecodeWorkUnit(f *testing.F) {
	seeds := []string{
		validUnit,
		`{"fingerprint":"megsim-ff","frame":0,"workload":{"benchmark":"asp"}}`,
		`{"fingerprint":"megsim-ff","frame":0,"workload":{"random_seed":42},"gpu":{"preset":"tbdr","tbdr":true}}`,
		``,
		`{`,
		`null`,
		`[]`,
		`"unit"`,
		`{"fingerprint":"megsim-ff"}`,
		`{"frame":1}`,
		`{"fingerprint":"cmp-ff","frame":0,"workload":{"benchmark":"asp"}}`,
		`{"fingerprint":"megsim-ff","frame":-1,"workload":{"benchmark":"asp"}}`,
		`{"fingerprint":"megsim-ff","frame":1048577,"workload":{"benchmark":"asp"}}`,
		`{"fingerprint":"megsim-ff","frame":0,"workload":{"benchmark":"asp"},"obs":true,"bogus":1}`,
		validUnit + `\x00`,
		`{"fingerprint":"megsim-` + strings.Repeat("f", 100) + `","frame":0,"workload":{"benchmark":"asp"}}`,
		`{"fingerprint":"megsim-ff","frame":0,"workload":{"benchmark":"asp","width":-1}}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		u, err := decodeWorkUnit(strings.NewReader(body))
		if err != nil {
			if u != nil {
				t.Fatal("error with non-nil unit")
			}
			return
		}
		if err := u.validate(); err != nil {
			t.Fatalf("decoded unit fails revalidation: %v", err)
		}
		// The specs must resolve exactly as the campaign service would
		// resolve them — the worker calls these before simulating.
		req := workUnitRequest(u)
		if _, err := req.GPUConfig(); err != nil {
			t.Fatalf("validated unit has unusable GPU config: %v", err)
		}
		if wk := req.WorkloadKey(); !strings.HasPrefix(wk, "wl-") {
			t.Fatalf("malformed workload key %q", wk)
		}
	})
}
