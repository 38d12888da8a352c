package main

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/megsim"
)

// TestStreamValidateWithinBand is the streaming half of the acceptance
// gate: `megsim -stream -validate` must land every metric inside the
// same tolerance bands the batch path is held to, across the oracle
// seeds and both raster-stage modes.
func TestStreamValidateWithinBand(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		var buf bytes.Buffer
		args := []string{
			"-benchmark", "hcr", "-frame-div", "40",
			"-stream", "-validate", "-seed", strconv.FormatUint(seed, 10),
		}
		if seed == 2 {
			args = append(args, "-tile-workers", "4")
		}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatalf("seed %d: %v\noutput:\n%s", seed, err, buf.String())
		}
		out := buf.String()
		if strings.Contains(out, "OUT OF BAND") {
			t.Errorf("seed %d: streaming accuracy out of band:\n%s", seed, out)
		}
		if !strings.Contains(out, "strata:") {
			t.Errorf("seed %d: report does not mention strata:\n%s", seed, out)
		}
	}
}

// TestStreamJSONReport: -stream -json emits the streaming block with a
// positive stratum count and a reduction factor.
func TestStreamJSONReport(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-benchmark", "hcr", "-frame-div", "40", "-stream", "-strata", "12", "-reservoir", "4", "-json"}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var out struct {
		Frames    int     `json:"frames"`
		Reduction float64 `json:"reduction_factor"`
		Streaming *struct {
			Strata int `json:"strata"`
		} `json:"streaming"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if out.Streaming == nil || out.Streaming.Strata == 0 || out.Streaming.Strata > 12 {
		t.Fatalf("streaming block: %s", buf.String())
	}
	if out.Reduction <= 1 {
		t.Fatalf("reduction %v", out.Reduction)
	}
}

// TestStreamFlagValidation: streaming knobs demand -stream, and a
// streaming run cannot save a batch clustering selection.
func TestStreamFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-benchmark", "hcr", "-strata", "8"},
		{"-benchmark", "hcr", "-reservoir", "4"},
		{"-benchmark", "hcr", "-stream-eager", "16"},
		{"-benchmark", "hcr", "-stream", "-save-selection", "sel.json"},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestStreamPreQuarantineReported: frames pre-quarantined in a
// streaming run are listed exactly as batch lists them — in the JSON
// resilience.quarantined records and in the text DEGRADED count.
func TestStreamPreQuarantineReported(t *testing.T) {
	healthy := sampleJSON(t, "-stream")
	victim := healthy.Representatives[0]
	rep := sampleJSON(t, "-stream", "-quarantine", strconv.Itoa(victim))
	if rep.Resilience == nil || !rep.Resilience.Degraded {
		t.Fatalf("quarantined representative not reported as degraded: %+v", rep.Resilience)
	}
	want := []megsim.QuarantineRecord{{Frame: victim, Err: "pre-quarantined"}}
	if !reflect.DeepEqual(rep.Resilience.Quarantined, want) {
		t.Fatalf("quarantined = %+v, want %+v", rep.Resilience.Quarantined, want)
	}

	var buf bytes.Buffer
	args := []string{"-benchmark", "hcr", "-frame-div", "40", "-stream", "-quarantine", strconv.Itoa(victim)}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	for _, line := range []string{
		"DEGRADED: 1 frames quarantined",
		want[0].String(),
	} {
		if !strings.Contains(buf.String(), line) {
			t.Errorf("text report missing %q:\n%s", line, buf.String())
		}
	}
}
