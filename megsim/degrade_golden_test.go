package megsim_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/serve"
	"repro/megsim"
)

var updateDegradedGoldens = flag.Bool("update-degraded-goldens", false,
	"rewrite the degraded campaign report goldens under testdata/degraded")

// TestDegradedReportGoldens pins the JSON and text campaign reports of
// degraded batch and streaming campaigns on hcr: a pre-quarantined
// representative (substitution), a fully quarantined small cluster or
// stratum (lost group and rescale), the substitution case checkpointed,
// cancelled mid-phase-2 and resumed, and a checkpointed campaign whose
// representative fails every attempt and is quarantined at run time.
// sampled_run_ms is wall clock and is zeroed; every other byte is
// deterministic. Regenerate with
//
//	go test ./megsim -run TestDegradedReportGoldens -update-degraded-goldens
func TestDegradedReportGoldens(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	cfg, gpu := megsim.DefaultConfig(), megsim.DefaultGPUConfig()
	ch, err := megsim.Characterize(tr)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := megsim.SelectFrames(ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{}, gpu)
	if err != nil {
		t.Fatal(err)
	}
	batchSub, batchLost := batchVictims(t, sel)
	streamSub, streamLost := streamVictims(t, healthy.Selection)

	batch := func(t *testing.T, q []int) *serve.CampaignReport {
		rrun, err := megsim.SampleResilientPrepared(context.Background(), tr, ch, sel, gpu,
			megsim.ResilienceConfig{Quarantine: q}, megsim.FrameRunner(tr, gpu))
		if err != nil {
			t.Fatal(err)
		}
		return serve.NewCampaignReport(rrun, 0)
	}
	streaming := func(t *testing.T, opts megsim.StreamingOptions) *serve.CampaignReport {
		srun, err := megsim.SampleStreaming(context.Background(), tr, opts, gpu)
		if err != nil {
			t.Fatal(err)
		}
		return serve.NewStreamingCampaignReport(srun, 0)
	}

	cases := []struct {
		name string
		run  func(t *testing.T) *serve.CampaignReport
	}{
		{"batch_substitute", func(t *testing.T) *serve.CampaignReport { return batch(t, batchSub) }},
		{"batch_lost", func(t *testing.T) *serve.CampaignReport { return batch(t, batchLost) }},
		{"batch_resume", func(t *testing.T) *serve.CampaignReport {
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			rcfg := megsim.ResilienceConfig{Workers: 1, CheckpointPath: ckpt, Quarantine: batchSub}
			ctx, fn := cancelOnCall(tr, gpu, 2)
			if _, err := megsim.SampleResilientPrepared(ctx, tr, ch, sel, gpu, rcfg, fn); err == nil {
				t.Fatal("cancelled batch run succeeded")
			}
			rcfg.Resume = true
			rrun, err := megsim.SampleResilientPrepared(context.Background(), tr, ch, sel, gpu, rcfg, megsim.FrameRunner(tr, gpu))
			if err != nil {
				t.Fatal(err)
			}
			if len(rrun.Supervision.Resumed) == 0 {
				t.Fatal("resumed batch run adopted nothing from the checkpoint")
			}
			return serve.NewCampaignReport(rrun, 0)
		}},
		{"batch_failed", func(t *testing.T) *serve.CampaignReport {
			rrun, err := megsim.SampleResilientPrepared(context.Background(), tr, ch, sel, gpu,
				failingConfig(t), failOn(tr, gpu, batchSub[0]))
			if err != nil {
				t.Fatal(err)
			}
			checkRuntimeQuarantine(t, rrun.Supervision, batchSub[0])
			return serve.NewCampaignReport(rrun, 0)
		}},
		{"stream_substitute", func(t *testing.T) *serve.CampaignReport {
			return streaming(t, megsim.StreamingOptions{Resilience: megsim.ResilienceConfig{Quarantine: streamSub}})
		}},
		{"stream_lost", func(t *testing.T) *serve.CampaignReport {
			return streaming(t, megsim.StreamingOptions{Resilience: megsim.ResilienceConfig{Quarantine: streamLost}})
		}},
		{"stream_resume", func(t *testing.T) *serve.CampaignReport {
			ckpt := filepath.Join(t.TempDir(), "stream.ckpt")
			rcfg := megsim.ResilienceConfig{Workers: 1, CheckpointPath: ckpt, Quarantine: streamSub}
			ctx, fn := cancelOnCall(tr, gpu, 2)
			if _, err := megsim.SampleStreaming(ctx, tr, megsim.StreamingOptions{Resilience: rcfg, Runner: fn}, gpu); err == nil {
				t.Fatal("cancelled streaming run succeeded")
			}
			rcfg.Resume = true
			srun, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{Resilience: rcfg}, gpu)
			if err != nil {
				t.Fatal(err)
			}
			if len(srun.Supervision.Resumed) == 0 {
				t.Fatal("resumed streaming run adopted nothing from the checkpoint")
			}
			return serve.NewStreamingCampaignReport(srun, 0)
		}},
		{"stream_failed", func(t *testing.T) *serve.CampaignReport {
			srun, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{
				Resilience: failingConfig(t),
				Runner:     failOn(tr, gpu, streamSub[0]),
			}, gpu)
			if err != nil {
				t.Fatal(err)
			}
			checkRuntimeQuarantine(t, srun.Supervision, streamSub[0])
			return serve.NewStreamingCampaignReport(srun, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := tc.run(t)
			if rep.Resilience == nil || !rep.Resilience.Degraded {
				t.Fatalf("campaign not degraded: %+v", rep.Resilience)
			}
			var js, txt bytes.Buffer
			if err := rep.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			rep.WriteText(&txt)
			checkGolden(t, filepath.Join("testdata", "degraded", tc.name+".json"), js.Bytes())
			checkGolden(t, filepath.Join("testdata", "degraded", tc.name+".txt"), txt.Bytes())
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under -update-degraded-goldens.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateDegradedGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-degraded-goldens)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// batchVictims picks the quarantine sets of the batch cases: the
// representative of the first cluster with a spare member (a
// substitution), and every member of the smallest cluster (a lost
// cluster; ties go to the lower cluster index).
func batchVictims(t *testing.T, sel *megsim.Selection) (sub, lost []int) {
	t.Helper()
	small := -1
	for c, size := range sel.Clusters.Sizes {
		if sub == nil && size > 1 {
			sub = []int{sel.Representatives[c]}
		}
		if small < 0 || size < sel.Clusters.Sizes[small] {
			small = c
		}
	}
	for f, c := range sel.Clusters.Assign {
		if c == small {
			lost = append(lost, f)
		}
	}
	if sub == nil || small < 0 || len(sel.Clusters.Sizes) < 2 {
		t.Fatalf("selection too small for the degraded cases: sizes %v", sel.Clusters.Sizes)
	}
	return sub, lost
}

// streamVictims picks the quarantine sets of the streaming cases: the
// representative of the first stratum with alternates (a substitution),
// and the whole reservoir of the smallest stratum whose reservoir holds
// every member (a lost stratum).
func streamVictims(t *testing.T, sel *megsim.StreamSelection) (sub, lost []int) {
	t.Helper()
	small := -1
	for i, st := range sel.Strata {
		if sub == nil && len(st.Alternates) > 0 {
			sub = []int{st.Representative}
		}
		if 1+len(st.Alternates) == st.Count && (small < 0 || st.Count < sel.Strata[small].Count) {
			small = i
		}
	}
	if sub == nil || small < 0 || len(sel.Strata) < 2 {
		t.Fatalf("selection too small for the degraded cases: %+v", sel.Strata)
	}
	st := sel.Strata[small]
	lost = append([]int{st.Representative}, st.Alternates...)
	sort.Ints(lost)
	return sub, lost
}

// failedAttempts is the attempt budget of the runtime-quarantine cases.
const failedAttempts = 2

// failingConfig checkpoints a campaign and quarantines a frame after
// failedAttempts failures, without backoff.
func failingConfig(t *testing.T) megsim.ResilienceConfig {
	return megsim.ResilienceConfig{
		CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt"),
		MaxAttempts:    failedAttempts,
		BackoffBase:    -1,
	}
}

// failOn returns a frame function that fails victim on every attempt
// and simulates every other frame.
func failOn(tr *megsim.Trace, gpu megsim.GPUConfig, victim int) megsim.ResilientFrameFunc {
	inner := megsim.FrameRunner(tr, gpu)
	return func(ctx context.Context, frame int, reg *megsim.ObsRegistry) (megsim.FrameStats, error) {
		if frame == victim {
			return megsim.FrameStats{}, fmt.Errorf("injected fault on frame %d", frame)
		}
		return inner(ctx, frame, reg)
	}
}

// checkRuntimeQuarantine asserts that victim is the one quarantined
// frame, with its attempts and error.
func checkRuntimeQuarantine(t *testing.T, sup *megsim.ResilienceResult, victim int) {
	t.Helper()
	want := []megsim.QuarantineRecord{{Frame: victim, Attempts: failedAttempts, Err: fmt.Sprintf("injected fault on frame %d", victim)}}
	if !reflect.DeepEqual(sup.Quarantined, want) {
		t.Fatalf("quarantined = %+v, want %+v", sup.Quarantined, want)
	}
}

// cancelOnCall returns a context and a frame function that cancels it
// on its n-th call (that attempt fails with the cancellation), so with
// one supervisor worker exactly the first n-1 frames complete before
// the campaign stops.
func cancelOnCall(tr *megsim.Trace, gpu megsim.GPUConfig, n int) (context.Context, megsim.ResilientFrameFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	inner := megsim.FrameRunner(tr, gpu)
	calls := 0
	return ctx, func(ctx context.Context, frame int, reg *megsim.ObsRegistry) (megsim.FrameStats, error) {
		if calls++; calls == n {
			cancel()
			return megsim.FrameStats{}, context.Canceled
		}
		return inner(ctx, frame, reg)
	}
}
