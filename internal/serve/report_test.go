package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/megsim"
)

func degradedReport() *CampaignReport {
	return &CampaignReport{
		Workload:        "hcr",
		Frames:          40,
		Clusters:        4,
		ExploredK:       8,
		Representatives: []int{2, 9, 17, 31},
		Reduction:       10,
		SampledMillis:   1500,
		Cycles:          123456,
		DRAMAccesses:    7890,
		L2Accesses:      4567,
		TileAccesses:    2345,
		Resilience: &ResilienceSummary{
			Degraded: true,
			Coverage: 0.75,
			Quarantined: []megsim.QuarantineRecord{
				{Frame: 9, Attempts: 3, Err: "injected fault"},
			},
			Substitutions: []megsim.Substitution{
				{Group: 1, Original: 9, Substitute: 10},
			},
			LostClusters: []int{3},
			Resumed:      []int{2},
			Retried:      2,
			Stalled:      []int{1},
			ResumeError:  "stale checkpoint",
		},
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	degradedReport().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"workload:        hcr (40 frames)",
		"clusters:        4 (explored k=1..8)",
		"representatives: [2 9 17 31]",
		"reduction:       10x fewer frames",
		"sampled run:     1.5s total",
		"WARNING: resume failed, started fresh: stale checkpoint",
		"resumed:         1 frames from checkpoint [2]",
		"retried:         2 frames needed more than one attempt",
		"WARNING: watchdog flagged stalled workers [1]",
		"DEGRADED: 1 frames quarantined, coverage 75.0% of 40 frames",
		"substitute: cluster 1 representative 9 -> 10",
		"lost: cluster 3 entirely quarantined, weights rescaled",
		"estimated cycles:      123456",
		"estimated tile cache:  2345",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}

	// A healthy run prints no supervision block at all.
	buf.Reset()
	healthy := degradedReport()
	healthy.Resilience = nil
	healthy.WriteText(&buf)
	if strings.Contains(buf.String(), "DEGRADED") || strings.Contains(buf.String(), "WARNING") {
		t.Fatalf("healthy run printed supervision noise:\n%s", buf.String())
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	rep := degradedReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back CampaignReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycles != rep.Cycles || back.Resilience == nil || back.Resilience.Coverage != 0.75 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	// WriteJSON and the service's stored result bytes must agree — one
	// renderer, one byte stream.
	stored, err := marshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), stored) {
		t.Fatal("WriteJSON and marshalReport disagree")
	}
}

func TestNewResilienceSummaryNil(t *testing.T) {
	if got := NewResilienceSummary(nil, nil); got != nil {
		t.Fatalf("summary without supervision: %+v, want nil", got)
	}
}
