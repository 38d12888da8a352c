package tbr_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/tbr"
	"repro/internal/workload"
)

// updateBatchedGoldens regenerates testdata/golden_batched.json from the
// current simulator. It must only ever be run on a revision whose output
// is known-good: the committed digests are the contract that hot-path
// refactors (SoA fragment state, arena-reused caches, batched probes)
// change *how* the numbers are computed, never the numbers themselves.
var updateBatchedGoldens = flag.Bool("update-batched-goldens", false,
	"regenerate testdata/golden_batched.json from the current simulator output")

const batchedGoldenPath = "testdata/golden_batched.json"

// batchedGoldenRun executes one golden scenario and returns the
// digests of everything downstream consumers observe: the per-frame
// statistics, the obs snapshot (counters, histograms, canonical
// timeline), and the checkpoint bytes a resilient run would persist.
func batchedGoldenRun(t *testing.T, profile string, deferred bool) (stats, snap, checkpoint string) {
	t.Helper()
	tr := workload.MustGenerate(workload.Profiles[profile], workload.TestScale)
	cfg := tbr.DefaultConfig()
	cfg.DeferredShading = deferred
	cfg.Obs = obs.New()
	sim, err := tbr.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	frames := sim.SimulateAll(nil)
	snapshot := cfg.Obs.Snapshot()

	digest := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}

	// Checkpoint bytes: encode the frames exactly as the resilient
	// supervisor would persist them mid-run. The envelope is canonical
	// (frames sorted, checksummed body), so the digest pins the on-disk
	// format as well as the values.
	cp := &resilience.Checkpoint{Fingerprint: fmt.Sprintf("golden-%s-def%v", profile, deferred)}
	for i := range frames {
		cp.Frames = append(cp.Frames, resilience.FrameRecord{Frame: frames[i].Frame, Attempts: 1, Stats: frames[i]})
	}
	cpBytes, err := resilience.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	cpSum := sha256.Sum256(cpBytes)

	return digest(frames), digest(snapshot), hex.EncodeToString(cpSum[:])
}

// TestGoldenBatchedPath pins the simulator's observable output — frame
// statistics, obs snapshots and checkpoint bytes — to digests captured
// before the batched/arena hot-path refactor. Any change to what the
// simulator computes (as opposed to how fast it computes it) fails here
// first, in both shading models.
func TestGoldenBatchedPath(t *testing.T) {
	type entry struct {
		Stats      string `json:"stats"`
		Obs        string `json:"obs"`
		Checkpoint string `json:"checkpoint"`
	}
	got := map[string]entry{}

	for _, profile := range []string{"hcr", "pvz"} {
		for _, deferred := range []bool{false, true} {
			st, sn, cp := batchedGoldenRun(t, profile, deferred)
			got[fmt.Sprintf("%s/deferred=%v", profile, deferred)] = entry{Stats: st, Obs: sn, Checkpoint: cp}
		}
	}

	if *updateBatchedGoldens {
		if err := os.MkdirAll(filepath.Dir(batchedGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(batchedGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), batchedGoldenPath)
		return
	}

	data, err := os.ReadFile(batchedGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (run with -update-batched-goldens on a known-good revision to create): %v", err)
	}
	want := map[string]entry{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, test produced %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("golden entry %q not produced by test", name)
			continue
		}
		if g != w {
			t.Errorf("%s: output diverged from pre-refactor golden:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
