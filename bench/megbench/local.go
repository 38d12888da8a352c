package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
	"repro/megsim"
)

// slot is one position of a pass. Every pass runs the same slots in the
// same order. Ops count toward op_s_p50; prep steps (validate-full's
// per-trace phase 1) count only toward pass time.
type slot struct {
	name string
	op   bool
	run  func(ctx context.Context, pass int, op int64) (*opResult, error)
}

// opResult is what one slot execution produced.
type opResult struct {
	frames int    // trace frames covered by the op's estimate
	reps   int    // representatives (or strata) simulated for it
	out    []byte // deterministic output: normalized report, accuracy rows

	// validate-full only.
	sampled, full time.Duration
	fullCycles    uint64
	cyclesErr     float64
	memErr        float64
}

// passRecord is a pass-structured measurement: the host time of every
// slot execution and every successful result, per slot.
type passRecord struct {
	slots []slot
	times [][]float64
	runs  [][]*opResult
}

// runPasses runs passes over slots until the run's seconds have elapsed,
// checking before each slot; the first pass always completes. With
// repeat, later passes rerun pass 0's inputs and must reproduce its
// outputs byte for byte.
func (b *bench) runPasses(ctx context.Context, oc *outcome, slots []slot, repeat bool) *passRecord {
	p := &passRecord{slots: slots, times: make([][]float64, len(slots)), runs: make([][]*opResult, len(slots))}
	start := time.Now()
	defer func() { oc.window = time.Since(start) }()
	for pass := 0; ; pass++ {
		for i, sl := range slots {
			if pass > 0 && time.Since(start) >= b.seconds() {
				return p
			}
			if i == 0 {
				oc.passes++
			}
			name := "prep"
			if sl.op {
				name = "op"
				oc.ops++
			}
			var res *opResult
			d, err := b.rec.root(name, func(op int64) error {
				var e error
				res, e = sl.run(ctx, pass, op)
				return e
			})
			oc.attempted++
			switch {
			case err != nil:
				oc.fail("%s pass %d: %v", sl.name, pass, err)
				continue
			case pass == 0:
				if res.out != nil {
					oc.digest = append(oc.digest, res.out)
				}
			case repeat && len(p.runs[i]) > 0 && !bytes.Equal(res.out, p.runs[i][0].out):
				oc.fail("%s pass %d: output differs from pass 0", sl.name, pass)
				continue
			}
			p.times[i] = append(p.times[i], d.Seconds())
			p.runs[i] = append(p.runs[i], res)
		}
	}
}

// slotMedian is the median host time of slot i over its executions: host
// contention only ever slows an execution, so the median resists it
// better than the mean.
func (p *passRecord) slotMedian(i int) float64 { return median(p.times[i]) }

// first is slot i's pass-0 result, or nil when it failed.
func (p *passRecord) first(i int) *opResult {
	if len(p.runs[i]) == 0 {
		return nil
	}
	return p.runs[i][0]
}

// endToEnd fills frames_per_s, op_s_p50 and reduction_x so that a
// partial last pass does not tilt the mix of slots: frames_per_s is one
// pass's frames over the pass time estimated from slot medians, and
// op_s_p50 the median of all op executions, each weighted by one over
// its slot's execution count. reduction_x is pass 0's, which every run
// completes.
func (p *passRecord) endToEnd(oc *outcome) {
	var passTime, frames float64
	var opTimes, weights, reductions []float64
	slotTimes := map[string][]float64{}
	for i, sl := range p.slots {
		slotTimes[sl.name] = p.times[i]
		passTime += p.slotMedian(i)
		r := p.first(i)
		if !sl.op || r == nil {
			continue
		}
		frames += float64(r.frames)
		for _, t := range p.times[i] {
			opTimes = append(opTimes, t)
			weights = append(weights, 1/float64(len(p.times[i])))
		}
		if r.reps > 0 {
			reductions = append(reductions, float64(r.frames)/float64(r.reps))
		}
	}
	if passTime > 0 {
		oc.metrics["frames_per_s"] = frames / passTime
	}
	oc.notes["slot_s"] = slotTimes
	oc.metrics["op_s_p50"] = weightedMedian(opTimes, weights)
	oc.metrics["reduction_x"] = mean(reductions)
}

// generate synthesizes a trace (layer workload).
func (b *bench) generate(op int64, p workload.Profile, sc workload.Scale) (*megsim.Trace, error) {
	var tr *megsim.Trace
	_, err := b.rec.do(op, op, "workload.generate", "workload", func(int64) error {
		var e error
		tr, e = workload.Generate(p, sc)
		return e
	})
	return tr, err
}

// characterize runs the batch functional simulation (layer funcsim).
func (b *bench) characterize(op int64, tr *megsim.Trace) (*megsim.Characterization, error) {
	var ch *megsim.Characterization
	d, err := b.rec.do(op, op, "funcsim.run", "funcsim", func(int64) error {
		var e error
		ch, e = megsim.Characterize(tr)
		return e
	})
	if err == nil {
		b.tally.add("funcsim.frames", float64(tr.NumFrames()))
		b.tally.add("funcsim.s", d.Seconds())
	}
	return ch, err
}

// selectFrames builds the feature vectors and runs the k-means/BIC
// search, the two calls megsim.SelectFrames makes (layer core).
func (b *bench) selectFrames(op int64, ch *megsim.Characterization, cfg megsim.Config) (*megsim.Selection, error) {
	var fs *megsim.FeatureSet
	if _, err := b.rec.do(op, op, "core.features", "core", func(int64) error {
		var e error
		fs, e = core.BuildFeatures(ch, cfg.Feature)
		return e
	}); err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	var sel *megsim.Selection
	if _, err := b.rec.do(op, op, "core.select", "core", func(int64) error {
		var e error
		sel, e = core.Select(fs, cfg)
		return e
	}); err != nil {
		return nil, fmt.Errorf("select: %w", err)
	}
	b.tally.add("core.selections", 1)
	b.tally.add("core.explored_k", float64(len(sel.BICScores)))
	return sel, nil
}

// frameRunner wraps a frame function so every cycle-simulated frame is
// a span of layer tbr under parent.
func (b *bench) frameRunner(op, parent int64, fn megsim.ResilientFrameFunc) megsim.ResilientFrameFunc {
	return func(ctx context.Context, frame int, reg *obs.Registry) (megsim.FrameStats, error) {
		var st megsim.FrameStats
		d, err := b.rec.do(op, parent, "tbr.frame", "tbr", func(int64) error {
			var e error
			st, e = fn(ctx, frame, reg)
			return e
		})
		if err == nil {
			b.tally.add("tbr.frames", 1)
			b.tally.add("tbr.cycles", float64(st.Cycles))
			b.tally.add("tbr.s", d.Seconds())
		}
		return st, err
	}
}

// supervise simulates the selection's representatives under the run
// supervisor (layer resilience, with tbr frames as children), then
// recomputes the estimate, which the supervised run computed inside its
// span, to time layer core's part of it and to check it.
func (b *bench) supervise(ctx context.Context, op int64, tr *megsim.Trace, ch *megsim.Characterization, sel *megsim.Selection, gpu megsim.GPUConfig) (*megsim.ResilientRun, time.Duration, error) {
	var rr *megsim.ResilientRun
	d, err := b.rec.do(op, op, "resilience.supervise", "resilience", func(id int64) error {
		var e error
		rr, e = megsim.SampleResilientPrepared(ctx, tr, ch, sel, gpu, megsim.ResilienceConfig{}, b.frameRunner(op, id, megsim.FrameRunner(tr, gpu)))
		return e
	})
	if err != nil {
		return nil, 0, err
	}
	b.tally.add("resilience.retries", float64(rr.Supervision.Retried))
	b.tally.add("resilience.quarantined", float64(len(rr.Supervision.Quarantined)))
	if rr.Degraded() {
		// No faults are injected, so a degraded estimate is a wrong one.
		return nil, 0, errors.New("estimate degraded without injected faults")
	}
	t := time.Now()
	est, err := sel.Estimate(rr.RepresentativeStats)
	b.tally.add("core.estimate.s", time.Since(t).Seconds())
	b.tally.add("core.estimate.n", 1)
	if err != nil || !reflect.DeepEqual(est, rr.Estimate) {
		return nil, 0, fmt.Errorf("estimate replay disagrees with the supervised run (err %v)", err)
	}
	return rr, d, nil
}

// report renders a campaign report with its one wall-clock field,
// sampled_run_ms, zeroed: what remains is a pure function of the
// campaign (layer serve).
func (b *bench) report(op int64, rep *serve.CampaignReport) ([]byte, error) {
	var out []byte
	_, err := b.rec.do(op, op, "serve.report", "serve", func(int64) error {
		var e error
		out, e = normalizedReport(rep)
		return e
	})
	return out, err
}

func normalizedReport(rep *serve.CampaignReport) ([]byte, error) {
	rep.SampledMillis = 0
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// localCampaign is one local batch campaign: the calls
// megsim.SampleResilient makes, each timed as its own span.
func (b *bench) localCampaign(ctx context.Context, op int64, p workload.Profile, sc workload.Scale) (*opResult, error) {
	tr, err := b.generate(op, p, sc)
	if err != nil {
		return nil, err
	}
	ch, err := b.characterize(op, tr)
	if err != nil {
		return nil, err
	}
	sel, err := b.selectFrames(op, ch, megsim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rr, sampled, err := b.supervise(ctx, op, tr, ch, sel, megsim.DefaultGPUConfig())
	if err != nil {
		return nil, err
	}
	out, err := b.report(op, serve.NewCampaignReport(rr, sampled))
	if err != nil {
		return nil, err
	}
	return &opResult{frames: tr.NumFrames(), reps: len(rr.Representatives()), out: out}, nil
}

// batchTemplate is the workload.RandomProfile seed whose structure
// (2D/3D, length, shader counts, layers) every batch-cold trace keeps;
// the run seed draws each trace's content. One structure makes the ops
// alike, so their median is steady across seeds; this one is a 3D game
// long enough that cycle simulation stays under 5% of an op.
const batchTemplate = 6

// batchSlots is how many distinct traces one pass covers; pass 0's
// reports make up the results digest.
const batchSlots = 4

// batchCold runs local batch campaigns with one client, each on a
// distinct trace, so nothing is shared or cached.
type batchCold struct{ b *bench }

// profile is the batch-cold trace of (pass, slot): the template's
// structure with content drawn from the run seed.
func (w *batchCold) profile(pass, slot int) workload.Profile {
	p := workload.RandomProfile(batchTemplate)
	p.Seed = mix(w.b.o.seed, tagBatch, uint64(pass), uint64(slot))
	p.Alias = fmt.Sprintf("%s-%x", p.Alias, p.Seed)
	return p
}

// setup warms up on the template's own content whatever the run seed,
// so that every run sets up alike.
func (w *batchCold) setup(ctx context.Context) error {
	_, err := w.b.localCampaign(ctx, 0, workload.RandomProfile(batchTemplate), workload.TestScale)
	return err
}

func (w *batchCold) measure(ctx context.Context, oc *outcome) {
	slots := make([]slot, batchSlots)
	for i := range slots {
		slots[i] = slot{name: fmt.Sprintf("trace-%d", i), op: true,
			run: func(ctx context.Context, pass int, op int64) (*opResult, error) {
				return w.b.localCampaign(ctx, op, w.profile(pass, i), w.b.scale)
			}}
	}
	w.b.runPasses(ctx, oc, slots, false).endToEnd(oc)
}

func (w *batchCold) close() {}

// streamTraces are the long Table II traces stream-long replays: two
// 2D games and hwh for the 3D ones (asp and spd take 11–16 s each,
// which would leave a run with a single pass). Their content is the
// published profiles'; the run seed draws the stratifier's reservoir
// seed. Redrawing hwh's content moves its campaign time by two fifths.
var streamTraces = []string{"jjo", "pvz", "hwh"}

// streamReplayStride is the frame stride of the post-run layer replay.
const streamReplayStride = 4

// streamLong runs local megsim.SampleStreaming campaigns with one
// client: funcsim per frame instead of in batch, and the online
// stratifier in place of the k-means search.
type streamLong struct{ b *bench }

func (w *streamLong) config() megsim.StreamConfig {
	cfg := megsim.DefaultStreamConfig()
	cfg.Seed = mix(w.b.o.seed, tagStream)
	return cfg
}

func (w *streamLong) campaign(ctx context.Context, op int64, name string, cfg megsim.StreamConfig, sc workload.Scale) (*opResult, error) {
	p, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	tr, err := w.b.generate(op, p, sc)
	if err != nil {
		return nil, err
	}
	gpu := megsim.DefaultGPUConfig()
	var srun *megsim.StreamingRun
	// The campaign's own time, minus its tbr frames, is streaming ingest:
	// funcsim.Streamer plus stream.Ingestor, split by the replay.
	d, err := w.b.rec.do(op, op, "stream.campaign", "ingest", func(id int64) error {
		var e error
		srun, e = megsim.SampleStreaming(ctx, tr, megsim.StreamingOptions{
			Stream: cfg,
			Runner: w.b.frameRunner(op, id, megsim.FrameRunner(tr, gpu)),
		}, gpu)
		return e
	})
	if err != nil {
		return nil, err
	}
	if srun.Degraded() {
		return nil, errors.New("streaming estimate degraded without injected faults")
	}
	sel := srun.Selection
	w.b.tally.add("stream.campaigns", 1)
	w.b.tally.add("stream.strata", float64(sel.NumStrata()))
	w.b.tally.add("stream.merges", float64(sel.Merges))
	w.b.tally.add("resilience.retries", float64(srun.Supervision.Retried))
	w.b.tally.add("resilience.quarantined", float64(len(srun.Supervision.Quarantined)))
	out, err := w.b.report(op, serve.NewStreamingCampaignReport(srun, d))
	if err != nil {
		return nil, err
	}
	return &opResult{frames: sel.Frames, reps: sel.NumStrata(), out: out}, nil
}

// setup warms up with the default configuration whatever the run seed,
// so that every run sets up alike.
func (w *streamLong) setup(ctx context.Context) error {
	_, err := w.campaign(ctx, 0, streamTraces[0], megsim.DefaultStreamConfig(), workload.TestScale)
	return err
}

func (w *streamLong) measure(ctx context.Context, oc *outcome) {
	slots := make([]slot, len(streamTraces))
	for i := range slots {
		slots[i] = slot{name: streamTraces[i], op: true,
			run: func(ctx context.Context, pass int, op int64) (*opResult, error) {
				return w.campaign(ctx, op, streamTraces[i], w.config(), w.b.scale)
			}}
	}
	w.b.runPasses(ctx, oc, slots, true).endToEnd(oc)
	for i := range streamTraces {
		if err := w.replay(i); err != nil {
			oc.fail("replay %s: %v", streamTraces[i], err)
		}
	}
}

// replay splits streaming ingest between its two layers, outside any
// op: it profiles every streamReplayStride-th frame of the trace with
// funcsim.Streamer.ProfileAt, feeds each profile to a fresh
// stream.Ingestor, and finalizes, timing the three calls separately.
func (w *streamLong) replay(i int) error {
	p, err := workload.Get(streamTraces[i])
	if err != nil {
		return err
	}
	tr, err := w.b.generate(-1, p, w.b.scale)
	if err != nil {
		return err
	}
	st, err := funcsim.NewStreamer(tr)
	if err != nil {
		return err
	}
	vs, fs := st.Static()
	ing := stream.NewIngestor(tr.Name, vs, fs, w.config())
	var prof funcsim.FrameProfile
	var profileS, addS float64
	n := 0
	for f := 0; f < tr.NumFrames(); f += streamReplayStride {
		t0 := time.Now()
		if err := st.ProfileAt(&prof, f); err != nil {
			return err
		}
		t1 := time.Now()
		if err := ing.Add(&prof); err != nil {
			return err
		}
		profileS += t1.Sub(t0).Seconds()
		addS += time.Since(t1).Seconds()
		n++
	}
	t := time.Now()
	if _, err := ing.Finalize(); err != nil {
		return err
	}
	w.b.tally.add("replay.finalize.s", time.Since(t).Seconds())
	w.b.tally.add("replay.finalize.n", 1)
	w.b.tally.add("replay.profile.s", profileS)
	w.b.tally.add("replay.add.s", addS)
	w.b.tally.add("replay.ingest.s", profileS+addS)
	w.b.tally.add("replay.frames", float64(n))
	w.b.tally.max("stream.peak_vectors", float64(ing.PeakVectors()))
	return nil
}

func (w *streamLong) close() {}

// validateTraces are the Table II traces validate-full checks, 2D (hcr,
// pvz) and 3D (bbr1), each at validateFrameDiv times fewer frames. Their
// content is the published profiles'; the run seed draws the k-means
// seed. Full simulation is most of the run, and its cost moves by a
// fifth when the content is redrawn, so content drawn from the seed
// would bury a regression in the spread between seeds.
var (
	validateTraces  = []string{"hcr", "pvz", "bbr1"}
	validatePresets = []string{"mali450", "lowend", "highend", "tbdr"}
)

const validateFrameDiv = 8

// validateFull characterizes and selects once per trace, then for each
// GPU preset simulates the representatives and the full sequence and
// compares the two.
type validateFull struct {
	b        *bench
	prepared []*prepared
}

// prepared is one trace's phase 1, shared by its presets' ops.
type prepared struct {
	tr  *megsim.Trace
	ch  *megsim.Characterization
	sel *megsim.Selection
}

func (w *validateFull) scale() workload.Scale {
	sc := w.b.scale
	if !w.b.o.smoke {
		sc.FrameDivisor *= validateFrameDiv
	}
	return sc
}

// prep runs the phase 1 of trace t.
func (w *validateFull) prep(op int64, t int, sc workload.Scale, cfg megsim.Config) (*opResult, error) {
	w.prepared[t] = nil
	p, err := workload.Get(validateTraces[t])
	if err != nil {
		return nil, err
	}
	tr, err := w.b.generate(op, p, sc)
	if err != nil {
		return nil, err
	}
	ch, err := w.b.characterize(op, tr)
	if err != nil {
		return nil, err
	}
	sel, err := w.b.selectFrames(op, ch, cfg)
	if err != nil {
		return nil, err
	}
	w.prepared[t] = &prepared{tr: tr, ch: ch, sel: sel}
	return &opResult{}, nil
}

func (w *validateFull) op(ctx context.Context, op int64, t int, preset string) (*opResult, error) {
	pr := w.prepared[t]
	if pr == nil {
		return nil, errors.New("phase 1 of the trace failed")
	}
	gpu, err := megsim.GPUPreset(preset)
	if err != nil {
		return nil, err
	}
	rr, sampled, err := w.b.supervise(ctx, op, pr.tr, pr.ch, pr.sel, gpu)
	if err != nil {
		return nil, err
	}
	var full []megsim.FrameStats
	fullD, err := w.b.rec.do(op, op, "tbr.full", "tbr", func(int64) error {
		var e error
		full, e = megsim.SimulateFullParallelCtx(ctx, pr.tr, gpu, 0)
		return e
	})
	if err != nil {
		return nil, err
	}
	total := megsim.SumStats(full)
	w.b.tally.add("tbr.frames", float64(len(full)))
	w.b.tally.add("tbr.cycles", float64(total.Cycles))
	w.b.tally.add("tbr.s", fullD.Seconds())
	rows := check.CompareRows(&rr.Estimate, &total, check.DefaultTolerance())
	res := &opResult{frames: pr.tr.NumFrames(), reps: len(rr.Representatives()),
		sampled: sampled, full: fullD, fullCycles: total.Cycles}
	for i, row := range rows {
		if !row.Pass {
			return nil, fmt.Errorf("%s error %.4f outside the %.2f band", row.Name, row.RelErr, row.Tolerance)
		}
		if i == 0 {
			res.cyclesErr = row.RelErr
		} else {
			res.memErr = max(res.memErr, row.RelErr)
		}
	}
	out, err := w.b.report(op, serve.NewCampaignReport(rr, sampled))
	if err != nil {
		return nil, err
	}
	res.out = append(out, fmt.Sprintf("%+v\n", rows)...)
	return res, nil
}

// setup warms up with the default k-means seed whatever the run seed,
// so that every run sets up alike.
func (w *validateFull) setup(ctx context.Context) error {
	w.prepared = make([]*prepared, len(validateTraces))
	if _, err := w.prep(0, 0, workload.TestScale, megsim.DefaultConfig()); err != nil {
		return err
	}
	_, err := w.op(ctx, 0, 0, validatePresets[0])
	return err
}

func (w *validateFull) measure(ctx context.Context, oc *outcome) {
	cfg := megsim.DefaultConfig()
	cfg.Seed = mix(w.b.o.seed, tagValidate)
	var slots []slot
	for t, name := range validateTraces {
		slots = append(slots, slot{name: name + "/phase1",
			run: func(_ context.Context, _ int, op int64) (*opResult, error) { return w.prep(op, t, w.scale(), cfg) }})
		for _, preset := range validatePresets {
			slots = append(slots, slot{name: name + "/" + preset, op: true,
				run: func(ctx context.Context, _ int, op int64) (*opResult, error) { return w.op(ctx, op, t, preset) }})
		}
	}
	p := w.b.runPasses(ctx, oc, slots, true)
	p.endToEnd(oc)

	// Slot medians again: phase 1 is charged once per trace, against the
	// sampled runs of all its presets.
	var fullS, sampledS, cycles, cyclesErr, memErr float64
	for i, sl := range slots {
		if !sl.op {
			sampledS += p.slotMedian(i)
			continue
		}
		var f, s []float64
		for _, r := range p.runs[i] {
			f = append(f, r.full.Seconds())
			s = append(s, r.sampled.Seconds())
		}
		fullS += median(f)
		sampledS += median(s)
		if r := p.first(i); r != nil {
			cycles += float64(r.fullCycles)
			cyclesErr = max(cyclesErr, r.cyclesErr)
			memErr = max(memErr, r.memErr)
		}
	}
	if sampledS > 0 && fullS > 0 {
		oc.metrics["speedup_x"] = fullS / sampledS
		oc.metrics["sim_mcycles_per_s"] = cycles / 1e6 / fullS
	}
	oc.metrics["cycles_err_pct"] = 100 * cyclesErr
	oc.metrics["mem_err_pct"] = 100 * memErr
}

func (w *validateFull) close() {}
