package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
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

// TestStreamFlagValidation: a flag that only refines another demands
// it (the streaming knobs need -stream, the validation knobs -validate,
// -resume needs -checkpoint) and writes nothing when refused, and a
// streaming run cannot save a batch clustering selection.
func TestStreamFlagValidation(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "r.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-strata", "8"}, "-strata needs -stream"},
		{[]string{"-reservoir", "4"}, "-reservoir needs -stream"},
		{[]string{"-validate-out", report}, "-validate-out needs -validate"},
		{[]string{"-tol", "2"}, "-tol needs -validate"},
		{[]string{"-resume"}, "-resume needs -checkpoint"},
		{[]string{"-stream", "-resume"}, "-resume needs -checkpoint"},
		{[]string{"-stream", "-save-selection", filepath.Join(dir, "sel.json")}, "-save-selection"},
	} {
		var buf bytes.Buffer
		args := append([]string{"-benchmark", "hcr", "-frame-div", "40"}, tc.args...)
		err := run(context.Background(), args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %v, want mention of %q", tc.args, err, tc.want)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) > 0 {
		t.Fatalf("refused runs wrote %v (%v)", entries, err)
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
