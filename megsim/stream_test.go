package megsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
	"repro/megsim"
)

// TestSampleStreamingHealthy: the streaming flow over a healthy trace
// produces a real selection with a reduction factor, an estimate, and
// no degradation.
func TestSampleStreamingHealthy(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	srun, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{}, megsim.DefaultGPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	if srun.Degraded() {
		t.Fatalf("healthy streaming run degraded: %+v", srun.Degradation)
	}
	if len(srun.Selection.Representatives()) == 0 || srun.Selection.ReductionFactor() <= 1 {
		t.Fatalf("selection: reps=%d reduction=%v", len(srun.Selection.Representatives()), srun.Selection.ReductionFactor())
	}
	if srun.Estimate.Cycles == 0 {
		t.Fatal("estimate has zero cycles")
	}
	if srun.Selection.Frames != tr.NumFrames() {
		t.Fatalf("selection covers %d frames, trace has %d", srun.Selection.Frames, tr.NumFrames())
	}
}

// normalizeReport zeroes the run-provenance fields that legitimately
// differ between an interrupted-then-resumed campaign and an
// uninterrupted one: wall time, the count of ingest frames skipped on
// resume, and which phase-2 records were adopted from the checkpoint.
// Every other byte of the report — selection, strata, estimates,
// coverage — must be identical.
func normalizeReport(rep *serve.CampaignReport) []byte {
	rep.SampledMillis = 0
	if rep.Streaming != nil {
		rep.Streaming.ResumedFrames = 0
	}
	if rep.Resilience != nil {
		rep.Resilience.Resumed = nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	return b
}

// TestSampleStreamingKillResume: a campaign killed mid-stream at varied
// frame indices and resumed from its checkpoint must finish with a
// report byte-identical (modulo provenance fields) to an uninterrupted
// run — same strata, same representatives, same estimate. The kill is
// modeled by truncating the stream with MaxFrames, which completes a
// checkpoint whose strata snapshot sits at exactly the kill frame.
func TestSampleStreamingKillResume(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("jjo", testScale())
	gpu := megsim.DefaultGPUConfig()
	n := tr.NumFrames()

	ref, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{}, gpu)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := normalizeReport(serve.NewStreamingCampaignReport(ref, 0))

	for _, kill := range []int{1, n / 3, 2 * n / 3} {
		ckpt := filepath.Join(t.TempDir(), "stream.ckpt")

		// Phase A: the doomed run — it gets through `kill` frames of
		// ingest (and whatever phase 2 its partial strata wanted) before
		// dying. Its checkpoint holds the strata snapshot at that frame.
		if _, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{
			MaxFrames:  kill,
			Resilience: megsim.ResilienceConfig{CheckpointPath: ckpt},
		}, gpu); err != nil {
			t.Fatalf("kill=%d: truncated run: %v", kill, err)
		}

		// Phase B: resume over the full stream.
		res, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{
			Resilience: megsim.ResilienceConfig{CheckpointPath: ckpt, Resume: true},
		}, gpu)
		if err != nil {
			t.Fatalf("kill=%d: resumed run: %v", kill, err)
		}
		if res.StreamResumeErr != nil {
			t.Fatalf("kill=%d: stream resume fell back: %v", kill, res.StreamResumeErr)
		}
		if res.ResumedFrames != kill {
			t.Fatalf("kill=%d: resumed %d ingest frames", kill, res.ResumedFrames)
		}

		if res.Estimate != ref.Estimate {
			t.Fatalf("kill=%d: estimate diverged:\n got %+v\nwant %+v", kill, res.Estimate, ref.Estimate)
		}
		if !reflect.DeepEqual(res.Selection, ref.Selection) {
			t.Fatalf("kill=%d: selection diverged", kill)
		}
		for _, f := range res.Selection.Representatives() {
			if res.RepresentativeStats[f] != ref.RepresentativeStats[f] {
				t.Fatalf("kill=%d: frame %d stats diverged", kill, f)
			}
		}
		if got := normalizeReport(serve.NewStreamingCampaignReport(res, 0)); !bytes.Equal(got, refBytes) {
			t.Fatalf("kill=%d: resumed report not byte-identical to uninterrupted run:\n%s\n---\n%s", kill, got, refBytes)
		}
	}
}

// TestSampleStreamingQuarantineDegrades: quarantining a streaming
// representative drives the substitution ladder end to end and is
// reported loudly.
func TestSampleStreamingQuarantineDegrades(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	gpu := megsim.DefaultGPUConfig()

	ref, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{}, gpu)
	if err != nil {
		t.Fatal(err)
	}
	victim := ref.Selection.Representatives()[0]

	srun, err := megsim.SampleStreaming(context.Background(), tr, megsim.StreamingOptions{
		Resilience: megsim.ResilienceConfig{Quarantine: []int{victim}},
	}, gpu)
	if err != nil {
		t.Fatal(err)
	}
	if !srun.Degraded() {
		t.Fatal("quarantined representative did not degrade the run")
	}
	found := false
	for _, s := range srun.Degradation.Substitutions {
		if s.Original == victim {
			found = true
			if _, ok := srun.RepresentativeStats[s.Substitute]; !ok {
				t.Fatalf("substitute %d was not simulated", s.Substitute)
			}
		}
	}
	if !found && len(srun.Degradation.Lost) == 0 {
		t.Fatalf("no substitution or loss recorded for %d: %+v", victim, srun.Degradation)
	}
	if _, ok := srun.RepresentativeStats[victim]; ok {
		t.Fatalf("quarantined frame %d was simulated", victim)
	}
}

// cancelAfterErrCalls is a context that cancels itself right after its
// n-th Err call returns (that call still reports nil). Sweeping n lands
// the cancellation everywhere a campaign consults its context: between
// ingested frames inside a characterization window, inside a window's
// frame-parallel characterization (whose workers watch Done), and in
// phase 2.
type cancelAfterErrCalls struct {
	context.Context
	cancel context.CancelFunc
	n      int64
	calls  atomic.Int64
}

func newCancelAfterErrCalls(n int64) *cancelAfterErrCalls {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelAfterErrCalls{Context: ctx, cancel: cancel, n: n}
}

func (c *cancelAfterErrCalls) Err() error {
	err := c.Context.Err()
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return err
}

// streamingAtProcs runs a checkpointed streaming campaign at GOMAXPROCS
// procs and returns its normalized report and final checkpoint bytes.
func streamingAtProcs(t *testing.T, procs int, tr *megsim.Trace, opts megsim.StreamingOptions) ([]byte, []byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	srun, err := megsim.SampleStreaming(context.Background(), tr, opts, megsim.DefaultGPUConfig())
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	ck, err := os.ReadFile(opts.Resilience.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return normalizeReport(serve.NewStreamingCampaignReport(srun, 0)), ck
}

// TestSampleStreamingFrameParallelInvariant: characterization windows
// run frame-parallel, yet the report and the checkpoint bytes are the
// same at GOMAXPROCS 1 and 4, with a checkpoint cadence (7 over 40
// frames) that leaves a shorter last window.
func TestSampleStreamingFrameParallelInvariant(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("jjo", testScale())
	var reports, ckpts [][]byte
	for _, procs := range []int{1, 4} {
		rep, ck := streamingAtProcs(t, procs, tr, megsim.StreamingOptions{
			MaxFrames:       40,
			CheckpointEvery: 7,
			Resilience:      megsim.ResilienceConfig{CheckpointPath: filepath.Join(t.TempDir(), "stream.ckpt")},
		})
		reports = append(reports, rep)
		ckpts = append(ckpts, ck)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("report depends on GOMAXPROCS:\n--- 1 ---\n%s\n--- 4 ---\n%s", reports[0], reports[1])
	}
	if !bytes.Equal(ckpts[0], ckpts[1]) {
		t.Fatal("checkpoint bytes depend on GOMAXPROCS")
	}
}

// TestSampleStreamingCancelMidWindowResumes: wherever a cancellation
// lands — mid-window, mid-characterization or mid-phase-2 — the
// checkpoint it leaves resumes to a report byte-identical to an
// uninterrupted run.
func TestSampleStreamingCancelMidWindowResumes(t *testing.T) {
	tr := megsim.MustGenerateBenchmark("hcr", testScale())
	gpu := megsim.DefaultGPUConfig()
	const frames, every = 40, 7
	opts := func(ckpt string, resume bool) megsim.StreamingOptions {
		return megsim.StreamingOptions{
			MaxFrames:       frames,
			CheckpointEvery: every,
			Resilience:      megsim.ResilienceConfig{CheckpointPath: ckpt, Resume: resume},
		}
	}
	ref, err := megsim.SampleStreaming(context.Background(), tr, opts(filepath.Join(t.TempDir(), "ref.ckpt"), false), gpu)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeReport(serve.NewStreamingCampaignReport(ref, 0))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	offGrid := false
	// n counts the campaign's Err calls: one on entry, one per ingested
	// frame (41 in all), then phase 2's. 2 and 9 cancel inside the
	// characterization of the windows starting at frames 0 and 7, 3 to 8
	// between the ingested frames of window [0,7), 45 and 55 inside
	// phase 2.
	for _, n := range []int64{2, 3, 4, 5, 6, 7, 8, 9, 45, 55} {
		ckpt := filepath.Join(t.TempDir(), "stream.ckpt")
		ctx := newCancelAfterErrCalls(n)
		if _, err := megsim.SampleStreaming(ctx, tr, opts(ckpt, false), gpu); !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: cancelled run: err = %v, want context.Canceled", n, err)
		}
		res, err := megsim.SampleStreaming(context.Background(), tr, opts(ckpt, true), gpu)
		if err != nil {
			t.Fatalf("n=%d: resumed run: %v", n, err)
		}
		if res.StreamResumeErr != nil {
			t.Fatalf("n=%d: stream resume fell back: %v", n, res.StreamResumeErr)
		}
		if n > frames+1 && res.ResumedFrames != frames {
			t.Fatalf("n=%d: cancelled during ingest (resumed at frame %d), not phase 2", n, res.ResumedFrames)
		}
		offGrid = offGrid || (res.ResumedFrames < frames && res.ResumedFrames%every != 0)
		if got := normalizeReport(serve.NewStreamingCampaignReport(res, 0)); !bytes.Equal(got, want) {
			t.Fatalf("n=%d (resumed at frame %d): report not byte-identical to the uninterrupted run:\n%s\n---\n%s", n, res.ResumedFrames, got, want)
		}
	}
	if !offGrid {
		t.Fatal("no cancellation landed off the checkpoint grid; the sweep tests nothing beyond periodic checkpoints")
	}
}
