package tbr_test

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/internal/workload"
)

var updateObservedFrame = flag.Bool("update", false, "rewrite testdata/observed_frame.json")

const observedFramePath = "testdata/observed_frame.json"

// queueNames are the four pipeline queues the simulator instruments.
var queueNames = []string{"vertex", "triangle", "fragment", "color"}

// observeFrame simulates the middle hcr frame at TestScale with the
// given tile-worker count into a fresh registry and returns the
// registry's snapshot.
func observeFrame(t *testing.T, tileWorkers int) *obs.Snapshot {
	t.Helper()
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	cfg := tbr.DefaultConfig()
	cfg.TileWorkers = tileWorkers
	cfg.Obs = obs.New()
	sim, err := tbr.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	sim.SimulateFrame(tr.NumFrames() / 2)
	return cfg.Obs.Snapshot()
}

func snapshotJSON(t *testing.T, s *obs.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkOccupancySampled fails unless every queue's occupancy histogram
// holds exactly one sample per admitted item.
func checkOccupancySampled(t *testing.T, s *obs.Snapshot, queues []string) {
	t.Helper()
	for _, q := range queues {
		admitted := s.Counters["queue."+q+".admitted"]
		h, ok := s.Histograms["queue."+q+".occupancy"]
		if !ok || admitted == 0 || h.Count != admitted {
			t.Errorf("queue %s: occupancy count %d (present %v), admitted %d", q, h.Count, ok, admitted)
		}
	}
}

// TestObservedFrameGolden pins the complete obs snapshot of one observed
// frame (every counter, every histogram including the four queue
// occupancy distributions, and the frame's spans) byte for byte, so a
// change to how the simulator records observability cannot change what
// it records. Regenerate with `go test ./internal/tbr -run
// TestObservedFrameGolden -update` and review the diff.
func TestObservedFrameGolden(t *testing.T) {
	snap := observeFrame(t, 0)
	checkOccupancySampled(t, snap, queueNames)
	got := snapshotJSON(t, snap)
	if *updateObservedFrame {
		if err := os.WriteFile(observedFramePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(observedFramePath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("observed-frame snapshot differs from %s (regenerate with -update if intended):\n%s", observedFramePath, got)
	}
}

// TestTileParallelOccupancy checks that the tile-parallel raster stage
// records the fragment and colour queue occupancy of its per-worker
// queues, one sample per admitted item, and that the observed frame is
// byte-identical at every tile-worker count.
func TestTileParallelOccupancy(t *testing.T) {
	var ref []byte
	for _, tw := range []int{1, 2, 4} {
		snap := observeFrame(t, tw)
		checkOccupancySampled(t, snap, queueNames)
		got := snapshotJSON(t, snap)
		if ref == nil {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Errorf("tile-workers=%d: snapshot differs from tile-workers=1:\n%s\nvs\n%s", tw, got, ref)
		}
	}
}
