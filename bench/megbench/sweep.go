package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/megsim"
)

// The sweep-cluster design space: every workload under every GPU preset
// and threshold, for sweepRounds k-means seeds drawn from the run seed.
// The four RandomProfile workloads are fixed, so the caches behave alike
// on every seed. Three are 2D games of similar cost and one is 3D: a 3D
// campaign takes about four times as long, and with two of each the
// median op would fall in the gap between the two costs, where it
// swings with every small change of either.
var (
	sweepWorkloads  = []uint64{33, 35, 3, 6}
	sweepPresets    = []string{"mali450", "lowend", "highend", "tbdr"}
	sweepThresholds = []float64{0.80, 0.85, 0.90}
)

const (
	sweepRounds   = 12
	sweepFrameDiv = 2
	sweepClients  = 2
	sweepPoll     = 5 * time.Millisecond
)

// sweepCluster drives the campaign service in coordinator mode: serve.New
// with a fabric.Coordinator over two in-process fabric.Workers, all on
// loopback httptest servers with megsimd's default settings, and two
// closed-loop clients that submit, poll and fetch.
type sweepCluster struct {
	b      *bench
	reqs   []serve.CampaignRequest
	prefix int // the first round: its reports make up the digest

	workers []*httptest.Server
	coord   *fabric.Coordinator
	srv     *serve.Server
	front   *httptest.Server
	base    map[string]uint64

	mu       sync.Mutex
	ops      map[string]*sweepOp // campaign fingerprint -> op in flight
	dispatch map[string][2]int64 // "fp#frame" -> dispatch span id, op
}

// sweepOp is a campaign the clients have in flight.
type sweepOp struct {
	id    int64
	start time.Time
}

// sweepCounters are the registry counters a run reads (minus their
// values after set-up).
var sweepCounters = []string{
	"serve.cache.trace.hit", "serve.cache.trace.miss",
	"serve.cache.char.hit", "serve.cache.char.miss",
	"serve.cache.frame.hit", "serve.cache.frame.miss",
	"serve.jobs.rejected", "fabric.dispatch.sent", "fabric.dispatch.failover",
}

func newSweepCluster(b *bench) *sweepCluster {
	w := &sweepCluster{b: b, ops: map[string]*sweepOp{}, dispatch: map[string][2]int64{}}
	rounds, thresholds := sweepRounds, sweepThresholds
	spec := serve.WorkloadSpec{FrameDiv: sweepFrameDiv}
	if b.o.smoke {
		rounds, thresholds = 1, thresholds[1:2]
		sc := workload.TestScale
		spec = serve.WorkloadSpec{Width: sc.Width, Height: sc.Height, FrameDiv: sc.FrameDivisor, DetailDiv: sc.DetailDivisor}
	}
	for r := 0; r < rounds; r++ {
		seed := 1 + mix(b.o.seed, tagSweep, uint64(r))%(1<<31)
		for _, th := range thresholds {
			for _, preset := range sweepPresets {
				for _, wl := range sweepWorkloads {
					s := spec
					s.RandomSeed = &wl
					w.reqs = append(w.reqs, serve.CampaignRequest{Workload: s, Threshold: th, Seed: seed, GPU: serve.GPUSpec{Preset: preset}})
				}
			}
		}
	}
	w.prefix = len(w.reqs) / rounds
	return w
}

func (w *sweepCluster) setup(ctx context.Context) error {
	reg := obs.NewWith(obs.Options{TraceCapacity: -1})
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(w.workerSpans(fabric.NewWorker(fabric.WorkerConfig{}).Handler()))
		w.workers = append(w.workers, ts)
		urls = append(urls, ts.URL)
	}
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{Workers: urls, Obs: reg})
	if err != nil {
		return err
	}
	w.coord = coord
	w.srv = serve.New(serve.Config{Obs: reg, Dispatcher: sweepDispatcher{w}})
	w.front = httptest.NewServer(w.srv.Handler())
	sc := workload.TestScale
	warm := serve.CampaignRequest{Workload: serve.WorkloadSpec{Benchmark: "hcr",
		Width: sc.Width, Height: sc.Height, FrameDiv: sc.FrameDivisor, DetailDiv: sc.DetailDivisor}}
	if _, _, err := w.campaign(ctx, &warm); err != nil {
		return fmt.Errorf("warm-up campaign: %w", err)
	}
	w.base = map[string]uint64{}
	for _, name := range sweepCounters {
		w.base[name] = reg.Counter(name).Value()
	}
	return nil
}

func (w *sweepCluster) close() {
	if w.front != nil {
		w.front.Close()
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := w.srv.Drain(ctx); err != nil {
			fmt.Fprintln(w.b.log, "megbench: drain:", err)
		}
	}
	if w.coord != nil {
		w.coord.Close()
	}
	for _, ts := range w.workers {
		ts.Close()
	}
	w.workers, w.coord, w.srv, w.front = nil, nil, nil, nil
}

// sweepDispatcher is the daemon's serve.Dispatcher: the coordinator's
// frame function, timed. The daemon asks for it once per campaign, right
// after trace, characterization and selection, which ends the
// campaign's serve.phase1 span.
type sweepDispatcher struct{ w *sweepCluster }

func (d sweepDispatcher) FrameRunner(fp string, req *serve.CampaignRequest) megsim.ResilientFrameFunc {
	w := d.w
	now := time.Now()
	w.mu.Lock()
	o := w.ops[req.Fingerprint()]
	w.mu.Unlock()
	op := int64(-1)
	if o != nil {
		op = o.id
		w.b.rec.record(0, op, op, "serve.phase1", "serve", o.start, now)
	}
	inner := w.coord.FrameRunner(fp, req)
	return func(ctx context.Context, frame int, reg *obs.Registry) (megsim.FrameStats, error) {
		key := fmt.Sprintf("%s#%d", fp, frame)
		id := w.b.rec.id()
		w.mu.Lock()
		w.dispatch[key] = [2]int64{id, op}
		w.mu.Unlock()
		start := time.Now()
		st, err := inner(ctx, frame, reg)
		end := time.Now()
		w.mu.Lock()
		delete(w.dispatch, key)
		w.mu.Unlock()
		w.b.rec.record(id, op, op, "fabric.dispatch", "fabric", start, end)
		if err == nil {
			w.b.tally.add("tbr.frames", 1)
			w.b.tally.add("tbr.cycles", float64(st.Cycles))
		}
		return st, err
	}
}

// workerSpans wraps a worker's handler: each frame it serves is a tbr
// span, parented to the dispatch that sent it.
func (w *sweepCluster) workerSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/fabric/v1/frames" {
			h.ServeHTTP(rw, r)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(io.LimitReader(r.Body, fabric.MaxWorkUnitBytes+1))
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var u fabric.WorkUnit
		_ = json.Unmarshal(body, &u) // a malformed unit is the worker's to refuse
		h.ServeHTTP(rw, r)
		end := time.Now()
		w.mu.Lock()
		ref, ok := w.dispatch[fmt.Sprintf("%s#%d", u.Fingerprint, u.Frame)]
		w.mu.Unlock()
		if !ok {
			ref = [2]int64{0, -1}
		}
		w.b.rec.record(0, ref[0], ref[1], "tbr.frame", "tbr", start, end)
		w.b.tally.add("tbr.s", end.Sub(start).Seconds())
	})
}

// campaign submits one campaign, polls its job every sweepPoll and
// fetches the report: one closed-loop op. It returns the report bytes
// as served and the op's host time.
func (w *sweepCluster) campaign(ctx context.Context, req *serve.CampaignRequest) ([]byte, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	fp := req.Fingerprint()
	client := w.front.Client()
	base := w.front.URL + "/api/v1"
	var rep []byte
	d, err := w.b.rec.root("op", func(op int64) error {
		w.mu.Lock()
		w.ops[fp] = &sweepOp{id: op, start: time.Now()}
		w.mu.Unlock()
		defer func() {
			w.mu.Lock()
			delete(w.ops, fp)
			w.mu.Unlock()
		}()
		var sub serve.SubmitResponse
		if _, err := w.b.rec.do(op, op, "serve.submit", "serve", func(int64) error {
			return httpJSON(ctx, client, http.MethodPost, base+"/campaigns", body, http.StatusAccepted, &sub)
		}); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(sweepPoll):
			}
			var st serve.JobStatus
			if err := httpJSON(ctx, client, http.MethodGet, base+"/jobs/"+sub.JobID, nil, http.StatusOK, &st); err != nil {
				return fmt.Errorf("poll: %w", err)
			}
			if st.State == serve.JobSucceeded {
				break
			}
			if st.State == serve.JobFailed || st.State == serve.JobInterrupted {
				return fmt.Errorf("job %s %s: %s", sub.JobID, st.State, st.Error)
			}
		}
		_, err := w.b.rec.do(op, op, "serve.fetch", "serve", func(int64) error {
			var e error
			rep, e = httpBody(ctx, client, http.MethodGet, base+"/jobs/"+sub.JobID+"/result", nil, http.StatusOK)
			return e
		})
		return err
	})
	return rep, d, err
}

func (w *sweepCluster) measure(ctx context.Context, oc *outcome) {
	reports := make([]*serve.CampaignReport, len(w.reqs))
	raw := make([][]byte, len(w.reqs))
	times := make([]float64, len(w.reqs))
	errs := make([]error, len(w.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < sweepClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.reqs) || (i >= w.prefix && time.Since(start) >= w.b.seconds()) {
					return
				}
				body, d, err := w.campaign(ctx, &w.reqs[i])
				if err == nil {
					reports[i], err = decodeReport(body)
				}
				raw[i], times[i], errs[i] = body, d.Seconds(), err
			}
		}()
	}
	wg.Wait()
	oc.window = time.Since(start)

	var opTimes, reductions []float64
	frames := 0
	for i := range w.reqs {
		if times[i] == 0 && errs[i] == nil {
			continue // never started
		}
		oc.attempted++
		oc.ops++
		if errs[i] != nil {
			oc.fail("campaign %d: %v", i, errs[i])
			continue
		}
		rep := reports[i]
		opTimes = append(opTimes, times[i])
		frames += rep.Frames
		if i < w.prefix {
			reductions = append(reductions, rep.Reduction)
			out, err := normalizedReport(rep)
			if err != nil {
				oc.fail("campaign %d: %v", i, err)
				continue
			}
			oc.digest = append(oc.digest, out)
		}
	}
	oc.metrics["frames_per_s"] = float64(frames) / oc.window.Seconds()
	oc.metrics["op_s_p50"] = median(opTimes)
	if len(opTimes) >= 100 {
		oc.metrics["op_s_p90"] = percentile(opTimes, 90)
	}
	if pct, v, ok := tail(opTimes); ok {
		oc.notes["op_s_tail"] = map[string]float64{"percentile": pct, "value": v, "samples": float64(len(opTimes))}
	}
	oc.metrics["reduction_x"] = mean(reductions)

	reg := w.srv.Registry()
	count := func(name string) float64 { return float64(reg.Counter(name).Value() - w.base[name]) }
	hitFrac := func(layer string) float64 {
		hit, miss := count("serve.cache."+layer+".hit"), count("serve.cache."+layer+".miss")
		if hit+miss == 0 {
			return 0
		}
		return hit / (hit + miss)
	}
	oc.layers["serve.cache.trace_hit_frac"] = hitFrac("trace")
	oc.layers["serve.cache.char_hit_frac"] = hitFrac("char")
	oc.layers["serve.cache.frame_hit_frac"] = hitFrac("frame")
	oc.layers["serve.jobs.rejected"] = count("serve.jobs.rejected")
	oc.layers["fabric.dispatch.sent"] = count("fabric.dispatch.sent")
	oc.layers["fabric.dispatch.failover"] = count("fabric.dispatch.failover")
	w.verifyLocal(ctx, oc, raw)
}

// verifyLocal reruns the first campaign of each workload in-process with
// megsim.SampleResilient: the daemon's report must match byte for byte
// once sampled_run_ms is zeroed on both sides.
func (w *sweepCluster) verifyLocal(ctx context.Context, oc *outcome, raw [][]byte) {
	for i := range sweepWorkloads {
		req := &w.reqs[i]
		oc.attempted++
		err := func() error {
			remote, err := decodeReport(raw[i])
			if err != nil {
				return err
			}
			want, err := normalizedReport(remote)
			if err != nil {
				return err
			}
			tr, err := req.BuildTrace()
			if err != nil {
				return err
			}
			gpu, err := req.GPUConfig()
			if err != nil {
				return err
			}
			rr, err := megsim.SampleResilient(ctx, tr, req.MegsimConfig(), gpu, megsim.ResilienceConfig{})
			if err != nil {
				return err
			}
			got, err := normalizedReport(serve.NewCampaignReport(rr, 0))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("daemon report differs from the local run:\n%s\nvs\n%s", want, got)
			}
			return nil
		}()
		if err != nil {
			oc.fail("local rerun of campaign %d: %v", i, err)
		}
	}
}

// overheads returns, per fabric.dispatch span, its duration minus the
// worker time of the frames it sent.
func overheads(spans []span) (dispatch, overhead []float64) {
	worker := map[int64]int64{}
	for _, s := range spans {
		if s.Name == "tbr.frame" {
			worker[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		if s.Name == "fabric.dispatch" {
			d := s.End - s.Start
			dispatch = append(dispatch, time.Duration(d).Seconds())
			overhead = append(overhead, time.Duration(d-worker[s.ID]).Seconds())
		}
	}
	return dispatch, overhead
}

func decodeReport(body []byte) (*serve.CampaignReport, error) {
	rep := &serve.CampaignReport{}
	if err := json.Unmarshal(body, rep); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	return rep, nil
}

// httpBody sends one request and returns the body of a want-status
// answer.
func httpBody(ctx context.Context, c *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func httpJSON(ctx context.Context, c *http.Client, method, url string, body []byte, want int, v any) error {
	out, err := httpBody(ctx, c, method, url, body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(out, v)
}
