package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/megsim"
)

// The cross-mode determinism property: a campaign returns the same
// report however it runs. FuzzCampaignModes draws a campaign as a
// serve.CampaignRequest and runs it
//
//   - locally at GOMAXPROCS 1 with one supervisor worker (the reference),
//   - locally at GOMAXPROCS 4 with four supervisor workers,
//   - locally, killed at a frame boundary and resumed from its checkpoint,
//   - through the daemon (serve over httptest),
//   - through the daemon over a 2-worker cluster auditing every frame,
//   - and through that cluster under each benign chaos class.
//
// Every mode must render the reference's report bytes after
// normalizeReport and leave the reference's final checkpoint bytes
// (per-frame stats and observability deltas), killed and resumed runs
// included: resuming a streaming campaign killed mid-ingest drops the
// records of the frames its truncated run simulated. Every cluster mode must
// leave the honest-fleet trust record: no quarantine, no audit
// mismatch, no recovery, every simulated frame audited once. These are
// byte comparisons of values that do not depend on timing; nothing
// here asserts that a chaos fault fired.

// modeScales are the test-sized scales campaigns are drawn at.
var modeScales = []workload.Scale{
	workload.TestScale,
	{Width: 96, Height: 48, FrameDivisor: 40, DetailDivisor: 2},
	{Width: 64, Height: 32, FrameDivisor: 80, DetailDivisor: 4},
}

// modePresets are the GPU presets of megbench's traffic plus the
// Table I default ("").
var modePresets = []string{"", "mali450", "lowend", "highend", "tbdr"}

// benignChaos are the fault classes an honest fleet absorbs without any
// recovery: added latency, duplicate delivery and a stall well inside
// the client timeout.
var benignChaos = []struct {
	name string
	cfg  chaos.Config
}{
	{"delay", chaos.Config{DelayRate: 0.6, Delay: 2 * time.Millisecond}},
	{"duplicate", chaos.Config{DuplicateRate: 0.6}},
	{"stall", chaos.Config{StallRate: 0.5, StallDelay: 20 * time.Millisecond}},
}

// drawCampaign maps a fuzz tuple onto a campaign document. wl 0 draws
// workload.RandomProfile(seed), any other value a Table II alias; gpu's
// low bit sets the TBDR toggle and the rest picks the preset. seed is
// also the methodology seed.
func drawCampaign(seed uint64, wl, scale, gpu uint8, stream bool) *serve.CampaignRequest {
	sc := modeScales[int(scale)%len(modeScales)]
	req := &serve.CampaignRequest{
		Workload: serve.WorkloadSpec{Width: sc.Width, Height: sc.Height, FrameDiv: sc.FrameDivisor, DetailDiv: sc.DetailDivisor},
		Seed:     seed,
		GPU:      serve.GPUSpec{Preset: modePresets[int(gpu>>1)%len(modePresets)], TBDR: gpu&1 == 1},
	}
	aliases := workload.Aliases()
	if n := int(wl) % (len(aliases) + 1); n == 0 {
		req.Workload.RandomSeed = &seed
	} else {
		req.Workload.Benchmark = aliases[n-1]
	}
	if stream {
		req.Stream = &serve.StreamSpec{MaxStrata: 8, ReservoirCap: 4}
	}
	return req
}

// FuzzCampaignModes checks the property on drawn campaigns; its seed
// corpus is the fixed set `go test` runs. kill picks the kill point:
// for batch campaigns the number of representatives simulated before
// the kill, for streaming ones the number of frames ingested.
func FuzzCampaignModes(f *testing.F) {
	f.Add(uint64(7), uint8(4), uint8(1), uint8(3), false, uint8(2))  // hcr, mali450 + TBDR
	f.Add(uint64(3), uint8(0), uint8(2), uint8(6), false, uint8(0))  // random seed, highend, killed before the first frame
	f.Add(uint64(11), uint8(0), uint8(1), uint8(8), true, uint8(13)) // random seed, tbdr preset, streaming
	f.Add(uint64(5), uint8(6), uint8(0), uint8(5), true, uint8(90))  // jjo, lowend + TBDR, streaming
	f.Fuzz(func(t *testing.T, seed uint64, wl, scale, gpu uint8, stream bool, kill uint8) {
		checkCampaignModes(t, drawCampaign(seed, wl, scale, gpu, stream), int(kill))
	})
}

// campaignRun is what one execution of a campaign leaves: the rendered
// report and the final checkpoint bytes.
type campaignRun struct {
	report, ckpt []byte
}

// checkCampaignModes runs req through every mode and compares each
// with the reference.
func checkCampaignModes(t *testing.T, req *serve.CampaignRequest, kill int) {
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := req.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	local := func(name string, o localOpts) campaignRun {
		t.Helper()
		o.ckpt = filepath.Join(dir, name+".ckpt")
		run, err := runLocal(req, tr, o)
		if err != nil {
			t.Fatalf("%s: %s: %v", body, name, err)
		}
		return run
	}
	ref := local("reference", localOpts{procs: 1, workers: 1, kill: -1})
	var rep serve.CampaignReport
	if err := json.Unmarshal(ref.report, &rep); err != nil {
		t.Fatal(err)
	}
	want, err := normalizeReport(ref.report, false)
	if err != nil {
		t.Fatal(err)
	}
	same := func(mode string, run campaignRun, recovery bool) {
		t.Helper()
		got, err := normalizeReport(run.report, recovery)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %s report differs from the reference:\n--- %s ---\n%s\n--- reference ---\n%s", body, mode, mode, got, want)
		}
		if run.ckpt != nil && !bytes.Equal(run.ckpt, ref.ckpt) {
			t.Fatalf("%s: %s checkpoint differs from the reference:\n--- %s ---\n%s\n--- reference ---\n%s", body, mode, mode, run.ckpt, ref.ckpt)
		}
	}

	same("workers=4", local("workers", localOpts{procs: 4, workers: 4, kill: -1}), false)

	// The kill lands on a frame boundary: batch campaigns stop after k
	// representatives on one supervisor worker, streaming ones after
	// k ingested frames.
	if req.Stream == nil {
		kill %= len(rep.Representatives)
	} else {
		kill = 1 + kill%(rep.Frames-1)
	}
	o := localOpts{procs: 1, workers: 1, kill: kill, ckpt: filepath.Join(dir, "killed.ckpt")}
	var killErr error // a truncated stream finishes; a cancelled batch run does not
	if req.Stream == nil {
		killErr = context.Canceled
	}
	if _, err := runLocal(req, tr, o); !errors.Is(err, killErr) {
		t.Fatalf("%s: killed at %d: err = %v, want %v", body, kill, err, killErr)
	}
	o.resume, o.kill, o.procs, o.workers = true, -1, 0, 0
	resumed, err := runLocal(req, tr, o)
	if err != nil {
		t.Fatalf("%s: resumed after kill at %d: %v", body, kill, err)
	}
	if adopted := resumedWork(t, resumed.report); adopted != kill {
		t.Fatalf("%s: resume adopted %d frames, killed at %d", body, adopted, kill)
	}
	same("killed+resumed", resumed, true)

	same("daemon", runServed(t, body, nil), false)

	_, _, urls := startFleet(t, 2)
	honest := trustLine(nil, uint64(len(rep.Representatives)), 0, 0, 0, 0)
	cluster := func(mode string, client *http.Client) {
		t.Helper()
		coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, Client: client, HeartbeatInterval: -1, AuditFraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		same(mode, runServed(t, body, coord), client != nil)
		if got := trustRecord(coord); got != honest {
			t.Fatalf("%s: %s trust record %q, want the honest fleet's %q", body, mode, got, honest)
		}
	}
	cluster("cluster", nil)
	for i, c := range benignChaos {
		c.cfg.Seed = req.Seed + uint64(i)
		cluster("cluster+"+c.name, chaosClient(t, c.cfg))
	}
}

// localOpts shapes an in-process run.
type localOpts struct {
	// procs is GOMAXPROCS for the run (0 = unchanged); workers the
	// supervisor's worker count (0 = GOMAXPROCS).
	procs, workers int
	ckpt           string
	resume         bool
	// kill >= 0 stops the run at a frame boundary: a batch campaign is
	// cancelled once kill representatives are simulated, a streaming
	// one stops after ingesting kill frames.
	kill int
}

// runLocal runs req in process over its trace tr the way the daemon
// does, with a checkpoint and a per-run observability registry, and
// returns the rendered report and the final checkpoint.
func runLocal(req *serve.CampaignRequest, tr *megsim.Trace, o localOpts) (campaignRun, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(o.procs))
	gpu, err := req.GPUConfig()
	if err != nil {
		return campaignRun{}, err
	}
	rcfg := megsim.ResilienceConfig{
		Workers:        o.workers,
		CheckpointPath: o.ckpt,
		Resume:         o.resume,
		Obs:            obs.NewWith(obs.Options{TraceCapacity: -1}),
	}
	var rep *serve.CampaignReport
	if req.Stream != nil {
		opts := megsim.StreamingOptions{Stream: req.StreamConfig(), Resilience: rcfg, CheckpointEvery: 7, MaxFrames: max(o.kill, 0)}
		srun, err := megsim.SampleStreaming(context.Background(), tr, opts, gpu)
		if err != nil {
			return campaignRun{}, err
		}
		rep = serve.NewStreamingCampaignReport(srun, 0)
	} else {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		fn := megsim.FrameRunner(tr, gpu)
		if o.kill >= 0 {
			inner, calls := fn, atomic.Int64{}
			fn = func(ctx context.Context, f int, reg *obs.Registry) (megsim.FrameStats, error) {
				if calls.Add(1) > int64(o.kill) {
					cancel()
					return megsim.FrameStats{}, ctx.Err()
				}
				return inner(ctx, f, reg)
			}
		}
		ch, err := megsim.Characterize(tr)
		if err != nil {
			return campaignRun{}, err
		}
		sel, err := megsim.SelectFrames(ch, req.MegsimConfig())
		if err != nil {
			return campaignRun{}, err
		}
		rrun, err := megsim.SampleResilientPrepared(ctx, tr, ch, sel, gpu, rcfg, fn)
		if err != nil {
			return campaignRun{}, err
		}
		rep = serve.NewCampaignReport(rrun, 0)
	}
	raw, err := marshalReport(rep)
	if err != nil {
		return campaignRun{}, err
	}
	ckpt, err := os.ReadFile(o.ckpt)
	return campaignRun{raw, ckpt}, err
}

// runServed submits body to a fresh daemon (its frames dispatched
// through d when non-nil) that checkpoints into a fresh directory, and
// returns the result bytes and the job's final checkpoint.
func runServed(t *testing.T, body []byte, d serve.Dispatcher) campaignRun {
	t.Helper()
	dir := t.TempDir()
	srv := serve.New(serve.Config{QueueCapacity: 4, CheckpointDir: dir, Dispatcher: d})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	sub := submitOK(t, ts, string(body))
	if st := waitTerminal(t, ts, sub.JobID); st.State != serve.JobSucceeded {
		t.Fatalf("%s: campaign ended %s: %s", body, st.State, st.Error)
	}
	code, raw := getJSON(t, ts, "/api/v1/jobs/"+sub.JobID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, raw)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, sub.Fingerprint+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return campaignRun{raw, ckpt}
}

// marshalReport renders a report exactly as the service does.
func marshalReport(rep *serve.CampaignReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// normalizeReport is the one normalization the property applies: it
// zeroes the wall-clock sampled_run_ms and, with recovery set (resumed
// and chaos modes), clears the resume, requeue and retry accounting,
// which record how a run got its results, not what they are.
func normalizeReport(raw []byte, recovery bool) ([]byte, error) {
	var r serve.CampaignReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("normalize report: %w", err)
	}
	r.SampledMillis = 0
	if recovery {
		if r.Resilience != nil {
			r.Resilience.Resumed = nil
			r.Resilience.Requeued = 0
			r.Resilience.Retried = 0
		}
		if r.Streaming != nil {
			r.Streaming.ResumedFrames = 0
		}
	}
	return marshalReport(&r)
}

// resumedWork is how much a resumed run adopted from its checkpoint:
// the representatives of a batch campaign, the ingested frames of a
// streaming one.
func resumedWork(t *testing.T, raw []byte) int {
	t.Helper()
	var r serve.CampaignReport
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if r.Streaming != nil {
		return r.Streaming.ResumedFrames
	}
	return len(r.Resilience.Resumed)
}

// trustRecord renders what a coordinator's fleet did besides producing
// results: the quarantined workers and the audit and recovery counts.
func trustRecord(c *Coordinator) string {
	n := c.reg.Snapshot().Counters
	return trustLine(c.quarantinedNames(), n["fabric.audit.sampled"], n["fabric.audit.mismatch"],
		n["fabric.dispatch.failover"], n["fabric.dispatch.lost"], n["fabric.digest.failed"])
}

func trustLine(quarantined []string, audited, mismatched, failover, lost, digestFailed uint64) string {
	return fmt.Sprintf("quarantined=%v audited=%d mismatched=%d failover=%d lost=%d digest_failed=%d",
		quarantined, audited, mismatched, failover, lost, digestFailed)
}
