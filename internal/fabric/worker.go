package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/megsim"
)

// WorkerConfig configures a Worker. The zero value is usable: a fresh
// metrics-only registry and no logging.
type WorkerConfig struct {
	// Obs is the worker's registry, exported on its /metrics; every
	// simulated frame's observability merges into it (nil = a fresh
	// enabled metrics-only registry).
	Obs *obs.Registry
	// Log, when non-nil, receives worker log lines; it must tolerate
	// concurrent writes.
	Log io.Writer
}

// Worker is one simulation worker of the fabric: a stateless HTTP
// service that simulates single frames on demand. It keeps only a
// content-addressed trace cache and a few frame runners with their idle
// simulators (the same serve.Cache the campaign service uses), so any
// frame of any campaign can land on any worker and the result is
// identical — state lives on the coordinator.
//
// Endpoints:
//
//	POST /fabric/v1/frames  simulate one WorkUnit -> workResult
//	GET  /fabric/v1/healthz liveness + draining flag (heartbeats)
//	POST /fabric/v1/drain   stop accepting frames (in-flight ones finish)
//	GET  /metrics           the worker registry in Prometheus format
type Worker struct {
	cfg   WorkerConfig
	reg   *obs.Registry
	cache *serve.Cache
	mux   *http.ServeMux

	draining atomic.Bool
	inflight atomic.Int64

	served, rejected, errored *obs.Counter
}

// NewWorker builds a simulation worker.
func NewWorker(cfg WorkerConfig) *Worker {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewWith(obs.Options{TraceCapacity: -1})
	}
	w := &Worker{
		cfg:      cfg,
		reg:      reg,
		cache:    serve.NewCache(reg, 0),
		served:   reg.Counter("fabric.frames.served"),
		rejected: reg.Counter("fabric.frames.rejected"),
		errored:  reg.Counter("fabric.frames.errored"),
	}
	w.mux = http.NewServeMux()
	w.mux.HandleFunc("POST /fabric/v1/frames", w.handleFrame)
	w.mux.HandleFunc("GET /fabric/v1/healthz", w.handleHealthz)
	w.mux.HandleFunc("POST /fabric/v1/drain", w.handleDrain)
	w.mux.HandleFunc("GET /metrics", w.handleMetrics)
	return w
}

// Handler returns the worker's HTTP handler.
func (w *Worker) Handler() http.Handler { return w.mux }

// Drain stops frame admission; in-flight frames run to completion. The
// coordinator sees the flag on its next heartbeat (and any frame POSTed
// meanwhile gets 503, which fails over without marking the worker
// down).
func (w *Worker) Drain() { w.draining.Store(true) }

// healthStatus answers the worker health endpoint.
type healthStatus struct {
	OK       bool  `json:"ok"`
	Draining bool  `json:"draining"`
	Inflight int64 `json:"inflight"`
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	writeJSON(rw, http.StatusOK, healthStatus{
		OK:       true,
		Draining: w.draining.Load(),
		Inflight: w.inflight.Load(),
	})
}

func (w *Worker) handleDrain(rw http.ResponseWriter, _ *http.Request) {
	w.Drain()
	w.logf("fabric: worker draining")
	writeJSON(rw, http.StatusOK, map[string]bool{"draining": true})
}

func (w *Worker) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := w.reg.Snapshot()
	snap.WritePrometheus(rw)
	fmt.Fprintf(rw, "# TYPE fabric_worker_inflight gauge\nfabric_worker_inflight %d\n", w.inflight.Load())
}

func (w *Worker) handleFrame(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		writeError(rw, http.StatusServiceUnavailable, "worker is draining")
		return
	}
	u, err := decodeWorkUnit(r.Body)
	if err != nil {
		w.rejected.Inc()
		writeError(rw, http.StatusBadRequest, err.Error())
		return
	}
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	res, code, err := w.simulate(r.Context(), u)
	if err != nil {
		if code >= http.StatusInternalServerError {
			w.errored.Inc()
		} else {
			w.rejected.Inc()
		}
		w.logf("fabric: frame %d of %s refused (%d): %v", u.Frame, u.Fingerprint, code, err)
		writeError(rw, code, err.Error())
		return
	}
	w.served.Inc()
	writeJSON(rw, http.StatusOK, res)
}

// simulate runs one validated work unit: rebuild (or cache-hit) the
// trace, verify the fingerprint, simulate the frame into a fresh
// registry. Panics in the simulator surface as 500s — the worker
// process survives any frame.
func (w *Worker) simulate(ctx context.Context, u *WorkUnit) (res *workResult, code int, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, code, err = nil, http.StatusInternalServerError, fmt.Errorf("frame %d panicked: %v", u.Frame, r)
		}
	}()
	req := workUnitRequest(u)
	wkey := req.WorkloadKey()
	tr, err := w.cache.Trace(ctx, wkey, req.BuildTrace)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("build trace: %w", err)
	}
	gpu, err := req.GPUConfig()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if got := megsim.RunFingerprint(tr, gpu); got != u.Fingerprint {
		return nil, http.StatusConflict,
			fmt.Errorf("fingerprint mismatch: unit says %s, worker built %s (version or config skew)", u.Fingerprint, got)
	}
	if u.Frame >= tr.NumFrames() {
		return nil, http.StatusBadRequest,
			fmt.Errorf("frame %d out of range: trace has %d frames", u.Frame, tr.NumFrames())
	}
	// A fresh registry per frame, exactly like the supervisor's local
	// registries: the snapshot is the frame's delta and nothing else,
	// which is what makes coordinator-side merges byte-identical to a
	// local run.
	reg := obs.NewWith(obs.Options{TraceCapacity: -1})
	stats, err := w.cache.Runner(wkey, u.Fingerprint, tr, gpu)(ctx, u.Frame, reg)
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("simulate frame %d: %w", u.Frame, err)
	}
	res = &workResult{Frame: u.Frame, Stats: stats}
	if u.Obs {
		res.Obs = reg.Snapshot()
	}
	res.Digest = res.ComputeDigest()
	w.reg.Merge(reg)
	return res, http.StatusOK, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		fmt.Fprintf(w.cfg.Log, format+"\n", args...)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	b, _ := json.Marshal(map[string]string{"error": msg})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}
