package megsim_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/megsim"
)

// unsupervisedEstimate is the sampling flow without the run supervisor:
// characterize, select, simulate every frame, and extrapolate from the
// representatives' stats. Frames are isolated (FlushCachesPerFrame), so
// a representative's stats do not depend on which frames ran before it.
func unsupervisedEstimate(t *testing.T, tr *megsim.Trace, cfg megsim.Config, gpu megsim.GPUConfig) megsim.FrameStats {
	t.Helper()
	ch, err := megsim.Characterize(tr)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := megsim.SelectFrames(ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := megsim.SimulateFullParallelCtx(context.Background(), tr, gpu, 0)
	if err != nil {
		t.Fatal(err)
	}
	reps := make(map[int]megsim.FrameStats, len(sel.Representatives))
	for _, f := range sel.Representatives {
		reps[f] = full[f]
	}
	est, err := sel.Estimate(reps)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestSampleResilientHealthyMatchesSample: with nothing failing, the
// supervised sampling path must land on exactly the estimate the
// unsupervised flow computes — supervision is free when the run is
// healthy.
func TestSampleResilientHealthyMatchesSample(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	cfg, gpu := megsim.DefaultConfig(), megsim.DefaultGPUConfig()

	plain := unsupervisedEstimate(t, tr, cfg, gpu)
	rrun, err := megsim.SampleResilient(context.Background(), tr, cfg, gpu, megsim.ResilienceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rrun.Degraded() {
		t.Fatalf("healthy run reported degraded: %+v", rrun.Degradation)
	}
	if rrun.Estimate != plain {
		t.Fatalf("supervised estimate differs:\n got %+v\nwant %+v", rrun.Estimate, plain)
	}
	if len(rrun.Supervision.Quarantined) != 0 || rrun.Supervision.Retried != 0 {
		t.Fatalf("healthy supervision: %+v", rrun.Supervision)
	}
}

// TestSampleResilientDegradationLoop: pre-quarantining a representative
// must drive the supervise-then-degrade loop — the substitute frame is
// simulated in a later round against the same checkpoint, the
// degradation is reported, and the estimate matches the degraded
// selection computed by hand.
func TestSampleResilientDegradationLoop(t *testing.T) {
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
	victim := sel.Representatives[0]

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	rrun, err := megsim.SampleResilient(context.Background(), tr, cfg, gpu, megsim.ResilienceConfig{
		CheckpointPath: ckpt,
		Quarantine:     []int{victim},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rrun.Degraded() {
		t.Fatal("quarantined representative did not degrade the run")
	}
	d := rrun.Degradation
	if len(d.Substitutions) != 1 || d.Substitutions[0].Original != victim {
		t.Fatalf("substitutions = %+v, want one for frame %d", d.Substitutions, victim)
	}
	sub := d.Substitutions[0].Substitute
	if _, ok := rrun.RepresentativeStats[sub]; !ok {
		t.Fatalf("substitute frame %d was not simulated (have %v)", sub, rrun.RepresentativeStats)
	}
	if _, ok := rrun.RepresentativeStats[victim]; ok {
		t.Fatalf("quarantined frame %d was simulated", victim)
	}
	want, err := d.Estimate(rrun.RepresentativeStats)
	if err != nil {
		t.Fatal(err)
	}
	if rrun.Estimate != want {
		t.Fatalf("estimate not from the degraded selection:\n got %+v\nwant %+v", rrun.Estimate, want)
	}
	// The quarantine is recorded and loud, never silent.
	if len(rrun.Supervision.Quarantined) != 1 || rrun.Supervision.Quarantined[0].Frame != victim {
		t.Fatalf("quarantine record: %+v", rrun.Supervision.Quarantined)
	}
}

// TestSampleResilientCancelThenResume: cancellation surfaces as a
// context error, and a later run resuming the checkpoint adopts the
// completed representatives and matches an uninterrupted run exactly.
func TestSampleResilientCancelThenResume(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("jjo", testScale())
	cfg, gpu := megsim.DefaultConfig(), megsim.DefaultGPUConfig()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // killed before the first frame boundary
	if _, err := megsim.SampleResilient(ctx, tr, cfg, gpu, megsim.ResilienceConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v", err)
	}

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ref, err := megsim.SampleResilient(context.Background(), tr, cfg, gpu, megsim.ResilienceConfig{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}

	res, err := megsim.SampleResilient(context.Background(), tr, cfg, gpu, megsim.ResilienceConfig{
		CheckpointPath: ckpt,
		Resume:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supervision.ResumeErr != nil {
		t.Fatalf("resume error: %v", res.Supervision.ResumeErr)
	}
	if len(res.Supervision.Resumed) == 0 {
		t.Fatal("resume adopted nothing from the checkpoint")
	}
	if res.Estimate != ref.Estimate {
		t.Fatalf("resumed estimate differs:\n got %+v\nwant %+v", res.Estimate, ref.Estimate)
	}
}

// TestRunFingerprintSensitivity: the fingerprint must move with every
// result-affecting input and stay put for observability.
func TestRunFingerprintSensitivity(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	gpu := megsim.DefaultGPUConfig()
	base := megsim.RunFingerprint(tr, gpu)

	other := gpu
	other.DeferredShading = !other.DeferredShading
	if megsim.RunFingerprint(tr, other) == base {
		t.Fatal("fingerprint ignores DeferredShading")
	}
	tr2 := megsim.MustGenerateBenchmark("jjo", testScale())
	if megsim.RunFingerprint(tr2, gpu) == base {
		t.Fatal("fingerprint ignores the trace")
	}

	obs := gpu
	obs.Obs = megsim.NewObsRegistry(0)
	if megsim.RunFingerprint(tr, obs) != base {
		t.Fatal("fingerprint varies with observability")
	}
}
