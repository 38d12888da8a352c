// Package serve is the MEGsim campaign service: the HTTP/JSON layer
// that turns the one-shot sampling pipeline into a long-lived daemon
// (cmd/megsimd). Clients POST a campaign — a workload spec, methodology
// and GPU settings, resilience options — and get a job ID to poll for
// progress and the final report.
//
// The service stacks four mechanisms on the existing pipeline:
//
//   - a content-addressed result cache (Cache) keyed on
//     megsim.RunFingerprint-style hashes at trace, characterization and
//     per-representative FrameStats granularity, with singleflight
//     deduplication — concurrent identical submissions run one
//     simulation and every caller reads byte-identical results;
//   - a bounded admission queue (admissionQueue) with backpressure:
//     when the queue is full, submissions get HTTP 429 with Retry-After
//     instead of unbounded memory growth;
//   - live metrics: /metrics exposes the merged observability registry
//     (every job's simulator counters fold into it) in Prometheus text
//     format, plus service gauges for queue depth and in-flight jobs;
//   - graceful drain: Drain stops admission, cancels in-flight jobs so
//     the resilience supervisor checkpoints them at the next frame
//     boundary, and waits for the workers — resubmitting an interrupted
//     campaign after restart resumes from its checkpoint to
//     byte-identical results.
//
// Batch jobs execute under megsim.SampleResilientPrepared and
// streaming jobs under megsim.SampleStreaming, on the same frame
// function and supervisor configuration, so per-frame retry,
// quarantine, checkpointing and graceful degradation all apply per job
// exactly as they do in the CLI.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/megsim"
)

// Dispatcher is the seam coordinator mode plugs into: when Config
// carries one, campaigns are still admitted, characterized, selected,
// supervised, checkpointed and cached locally, but the frame function
// the supervisor drives comes from the Dispatcher instead of the
// in-process simulator. internal/fabric implements it over an HTTP
// worker fleet. The returned function must honor FrameRunner's purity
// contract: same fingerprint, same frame, same stats and observability.
type Dispatcher interface {
	// FrameRunner returns the frame function for the campaign identified
	// by fp (its megsim.RunFingerprint). req carries the validated
	// workload and GPU specs a remote worker needs to rebuild the trace.
	FrameRunner(fp string, req *CampaignRequest) megsim.ResilientFrameFunc
}

// Config configures a Server. The zero value is usable: default queue
// capacity and worker count, no checkpoint directory (drain then loses
// in-flight progress), a fresh metrics-only observability registry.
type Config struct {
	// QueueCapacity bounds the admission queue (0 = DefaultQueueCapacity).
	QueueCapacity int
	// Workers is the job worker pool size (0 or negative = GOMAXPROCS).
	Workers int
	// CheckpointDir, when non-empty, gives every job a checkpoint file
	// named by its campaign fingerprint, written at frame granularity
	// and resumed automatically when the identical campaign is
	// resubmitted (after a drain, a crash, or a restart).
	CheckpointDir string
	// MaxCachedFrames bounds the per-representative FrameStats cache
	// (0 = defaultMaxFrames).
	MaxCachedFrames int
	// Dispatcher, when non-nil, sources each campaign's frame function
	// (coordinator mode); nil runs frames on the in-process simulator.
	Dispatcher Dispatcher
	// Obs is the service registry /metrics exports (nil = a fresh
	// enabled metrics-only registry). Every job's observability merges
	// into it.
	Obs *obs.Registry
	// Log, when non-nil, receives service log lines. It is written from
	// the worker goroutines, so it must tolerate concurrent writes when
	// Workers > 1 (os.Stderr and friends do).
	Log io.Writer
}

// DefaultQueueCapacity is the admission bound when Config leaves it 0.
const DefaultQueueCapacity = 64

// Server is the campaign service. Create with New, expose via Handler,
// stop with Drain.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *Cache
	store *store
	queue *admissionQueue
	mux   *http.ServeMux

	jobsCtx    context.Context
	cancelJobs context.CancelFunc
	wg         sync.WaitGroup

	draining atomic.Bool
	inflight atomic.Int64

	submitted, deduped, rejected *obs.Counter
	executed, completed, failed  *obs.Counter
	degradedJobs, interrupted    *obs.Counter
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewWith(obs.Options{TraceCapacity: -1})
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = DefaultQueueCapacity
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		reg:          reg,
		cache:        NewCache(reg, cfg.MaxCachedFrames),
		store:        newStore(),
		queue:        newAdmissionQueue(cfg.QueueCapacity),
		jobsCtx:      ctx,
		cancelJobs:   cancel,
		submitted:    reg.Counter("serve.jobs.submitted"),
		deduped:      reg.Counter("serve.jobs.deduped"),
		rejected:     reg.Counter("serve.jobs.rejected"),
		executed:     reg.Counter("serve.jobs.executed"),
		completed:    reg.Counter("serve.jobs.completed"),
		failed:       reg.Counter("serve.jobs.failed"),
		degradedJobs: reg.Counter("serve.jobs.degraded"),
		interrupted:  reg.Counter("serve.jobs.interrupted"),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the service observability registry (the one /metrics
// exports).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Drain gracefully stops the service: admission closes (submissions get
// 503), in-flight jobs are cancelled so the resilience supervisor
// flushes a final checkpoint at the next frame boundary, queued jobs
// are marked interrupted, and the worker pool is awaited. ctx bounds
// the wait; on expiry the workers are abandoned and ctx's error
// returned. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	s.cancelJobs()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// worker claims queued jobs until the queue closes and drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue.ch {
		s.runJob(j)
	}
}

// runJob executes one campaign and settles the job's terminal state.
func (s *Server) runJob(j *job) {
	if s.jobsCtx.Err() != nil {
		s.finishInterrupted(j, "service drained before the job started")
		return
	}
	j.setRunning()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	rep, err := s.execute(s.jobsCtx, j)
	if err != nil {
		if s.jobsCtx.Err() != nil {
			msg := "service drained mid-run"
			if s.cfg.CheckpointDir != "" {
				msg += "; progress checkpointed — resubmit the identical campaign to resume"
			}
			s.finishInterrupted(j, msg)
			return
		}
		s.failed.Inc()
		// Log before publishing the terminal state: clients observing
		// Done() must see a quiescent server (no writes race the read).
		s.logf("serve: %s failed: %v", j.ID, err)
		j.fail(JobFailed, err.Error())
		return
	}
	var buf []byte
	buf, err = marshalReport(rep)
	if err != nil {
		s.failed.Inc()
		j.fail(JobFailed, fmt.Sprintf("render report: %v", err))
		return
	}
	if rep.Resilience != nil && rep.Resilience.Degraded {
		s.degradedJobs.Inc()
	}
	s.completed.Inc()
	s.logf("serve: %s succeeded (%s)", j.ID, j.Fingerprint)
	j.complete(rep, buf)
}

func (s *Server) finishInterrupted(j *job, msg string) {
	s.interrupted.Inc()
	s.logf("serve: %s interrupted: %s", j.ID, msg)
	j.fail(JobInterrupted, msg)
}

// execute runs the campaign through the cached pipeline: trace and
// characterization by workload key; the features rebuilt from the
// characterization (cheap) and the cluster-count exploration by
// exploreKey, cut at the campaign's threshold; then the supervised
// sampling run with the per-representative FrameStats cache wrapped
// around the frame runner.
func (s *Server) execute(ctx context.Context, j *job) (*CampaignReport, error) {
	req := j.Req
	if req.Stream != nil {
		return s.executeStreaming(ctx, j)
	}
	wkey := req.WorkloadKey()
	tr, err := s.cache.Trace(ctx, wkey, req.BuildTrace)
	if err != nil {
		return nil, fmt.Errorf("build trace: %w", err)
	}
	ch, err := s.cache.characterization(ctx, wkey, func() (*megsim.Characterization, error) {
		return megsim.Characterize(tr)
	})
	if err != nil {
		return nil, fmt.Errorf("characterize: %w", err)
	}
	cfg := req.MegsimConfig()
	fs, err := core.BuildFeatures(ch, cfg.Feature)
	if err != nil {
		return nil, fmt.Errorf("select frames: %w", err)
	}
	ex, err := s.cache.exploration(ctx, req.exploreKey(), func() (*cluster.Exploration, error) {
		return core.Explore(fs, cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("select frames: %w", err)
	}
	sel, err := core.Cut(fs, ex, cfg.Search.Threshold)
	if err != nil {
		return nil, fmt.Errorf("select frames: %w", err)
	}
	gpu, err := req.GPUConfig()
	if err != nil {
		return nil, err
	}
	fn, rcfg := s.supervision(j, tr, gpu)
	start := time.Now()
	s.executed.Inc()
	rrun, err := megsim.SampleResilientPrepared(ctx, tr, ch, sel, gpu, rcfg, fn)
	// Fold whatever the job recorded — even a cancelled run's completed
	// frames — into the service registry for /metrics.
	s.reg.Merge(rcfg.Obs)
	if err != nil {
		return nil, err
	}
	return NewCampaignReport(rrun, time.Since(start)), nil
}

// executeStreaming runs a streaming campaign job: the online stratifier
// replaces batch characterization and selection, and phase 2 reuses the
// same per-representative FrameStats cache (and dispatcher, in
// coordinator mode) as batch campaigns.
func (s *Server) executeStreaming(ctx context.Context, j *job) (*CampaignReport, error) {
	req := j.Req
	tr, err := s.cache.Trace(ctx, req.WorkloadKey(), req.BuildTrace)
	if err != nil {
		return nil, fmt.Errorf("build trace: %w", err)
	}
	gpu, err := req.GPUConfig()
	if err != nil {
		return nil, err
	}
	fn, rcfg := s.supervision(j, tr, gpu)
	opts := megsim.StreamingOptions{Stream: req.StreamConfig(), Resilience: rcfg, Runner: fn}
	start := time.Now()
	s.executed.Inc()
	srun, err := megsim.SampleStreaming(ctx, tr, opts, gpu)
	s.reg.Merge(rcfg.Obs)
	if err != nil {
		return nil, err
	}
	return NewStreamingCampaignReport(srun, time.Since(start)), nil
}

// supervision builds what a job's supervisor runs on, batch or
// streaming: the frame function (the dispatcher's in coordinator mode,
// else the in-process simulator) behind the per-representative
// FrameStats cache, and the resilience configuration, which records
// into a fresh per-job registry and checkpoints under CheckpointDir.
func (s *Server) supervision(j *job, tr *megsim.Trace, gpu megsim.GPUConfig) (megsim.ResilientFrameFunc, megsim.ResilienceConfig) {
	fp := megsim.RunFingerprint(tr, gpu)
	inner := megsim.FrameRunner(tr, gpu)
	if s.cfg.Dispatcher != nil {
		inner = s.cfg.Dispatcher.FrameRunner(fp, j.Req)
	}
	rcfg := j.Req.resilienceConfig()
	rcfg.Obs = obs.NewWith(obs.Options{TraceCapacity: -1})
	rcfg.Fingerprint = fp
	if s.cfg.CheckpointDir != "" {
		rcfg.CheckpointPath = filepath.Join(s.cfg.CheckpointDir, j.Fingerprint+".ckpt")
		rcfg.Resume = true // a missing checkpoint is a clean fresh start
	}
	rcfg.Log = s.cfg.Log
	return s.cache.frameRunner(j.Req.WorkloadKey(), fp, inner), rcfg
}

// SubmitResponse answers POST /api/v1/campaigns.
type SubmitResponse struct {
	JobID       string   `json:"job_id"`
	Fingerprint string   `json:"fingerprint"`
	State       JobState `json:"state"`
	// Deduped is true when the submission attached to an existing job
	// with the same campaign fingerprint instead of enqueuing a new one.
	Deduped bool `json:"deduped"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	req, err := DecodeCampaignRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.submitted.Inc()
	fp := req.Fingerprint()
	j, fresh := s.store.Submit(req, fp)
	if !fresh {
		s.deduped.Inc()
		writeJSON(w, http.StatusOK, SubmitResponse{JobID: j.ID, Fingerprint: fp, State: j.State(), Deduped: true})
		return
	}
	if !s.queue.TryEnqueue(j) {
		s.store.Remove(j)
		s.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.queue.Depth(), s.queue.Capacity(), fp)))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("admission queue full (capacity %d); retry later", s.queue.Capacity()))
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{JobID: j.ID, Fingerprint: fp, State: j.State()})
}

// retryAfterSeconds derives the 429 Retry-After from queue pressure: a
// base that grows with depth/capacity (an emptier queue invites a
// quicker retry) plus a small deterministic jitter keyed on the
// campaign fingerprint, so a herd of synchronized clients rejected in
// the same instant spreads its retries instead of re-stampeding. Pure
// function of its inputs — the same rejection always gets the same
// advice.
func retryAfterSeconds(depth, capacity int, key string) int {
	if capacity <= 0 {
		capacity = 1
	}
	if depth < 0 {
		depth = 0
	}
	base := 1 + (4*depth)/capacity // 1s empty .. 5s full
	h := fnv.New32a()
	h.Write([]byte(key))
	return base + int(h.Sum32()%3) // +0..2s spread per campaign
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	buf, ok := j.Result()
	if !ok {
		st := j.Status()
		msg := fmt.Sprintf("job is %s", st.State)
		if st.Error != "" {
			msg += ": " + st.Error
		}
		writeError(w, http.StatusConflict, msg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.store.List()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics exports the merged observability registry — every
// completed job's simulator and supervisor counters — in Prometheus
// text format, plus the service's live gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.reg.Snapshot()
	if err := snap.WritePrometheus(w); err != nil {
		return
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
	}
	gauge("megsimd_queue_depth", int64(s.queue.Depth()))
	gauge("megsimd_queue_capacity", int64(s.queue.Capacity()))
	gauge("megsimd_inflight_jobs", s.inflight.Load())
	draining := int64(0)
	if s.draining.Load() {
		draining = 1
	}
	gauge("megsimd_draining", draining)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"draining": s.draining.Load(),
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// marshalReport renders the report bytes stored on the job — rendered
// once, served identically to every caller.
func marshalReport(rep *CampaignReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
