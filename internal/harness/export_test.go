package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tbr"
	"repro/internal/workload"
)

func TestWriteFrameStatsCSV(t *testing.T) {
	r, err := Run(workload.Profiles["hcr"], TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrameStatsCSV(&buf, r.Full[:5]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d, want header + 5", len(lines))
	}
	if !strings.HasPrefix(lines[0], "frame,cycles,") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestSelectionSummaryRoundTrip(t *testing.T) {
	r, err := Run(workload.Profiles["jjo"], TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	sum := NewSelectionSummary("jjo", r.Selection, true)
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got SelectionSummary
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Workload != "jjo" || got.Clusters != r.Selection.Clusters.K {
		t.Fatalf("round trip mangled summary: %+v", got)
	}
	if len(got.Assignment) != r.Selection.NumFrames() {
		t.Fatal("assignment lost")
	}

	// Estimating from the summary must reproduce the live estimate.
	repStats := make(map[int]tbr.FrameStats, len(got.Representatives))
	for _, f := range got.Representatives {
		repStats[f] = r.Full[f]
	}
	est, err := core.Extrapolate(got.Representatives, got.ClusterSizes, repStats)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cycles != r.Estimate.Cycles || est.DRAM.Accesses != r.Estimate.DRAM.Accesses {
		t.Fatalf("summary estimate %d differs from live estimate %d", est.Cycles, r.Estimate.Cycles)
	}
}
