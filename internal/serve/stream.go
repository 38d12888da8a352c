package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/funcsim"
	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/megsim"
)

// Chunked-upload stream sessions: the daemon-side face of streaming
// campaigns. A client opens a session with a streaming campaign request,
// feeds the workload's frames in chunks of whatever size it likes, and
// finishes; the accumulated strata snapshot is handed to a phase-2 job
// through the same admission queue, dedup store and result cache every
// campaign uses. Session memory is bounded exactly like the ingestor's:
// per-frame state lives only while the frame sits in a stratum
// reservoir, and the ingestor's eviction hook releases it the moment it
// stops being a candidate.

const (
	// DefaultMaxStreamSessions bounds concurrently open sessions.
	DefaultMaxStreamSessions = 16
	// maxChunkCount bounds one chunk's frame count.
	maxChunkCount = 1 << 16
	// DefaultStreamIdleTimeout expires an open session that has stopped
	// ingesting, freeing its session slot for live clients.
	DefaultStreamIdleTimeout = 5 * time.Minute
	// DefaultStreamRetention evicts a closed session's status document
	// this long after it finished, aborted or expired, bounding the
	// session store however many streams a deployment has seen.
	DefaultStreamRetention = 15 * time.Minute
)

// streamIngestBatch bounds how many frames one session-lock acquisition
// may ingest: a large chunk re-acquires the lock per batch, so status
// polls are never blocked behind a whole chunk. A var so tests can
// force multi-batch ingest on small workloads.
var streamIngestBatch = 512

// streamSession is one open chunked-upload stream.
type streamSession struct {
	mu       sync.Mutex
	id       string
	req      *CampaignRequest
	tr       *gltrace.Trace
	streamer *funcsim.Streamer
	ing      *stream.Ingestor
	// members is the per-frame payload the session pins: exactly the
	// frames currently sitting in some stratum reservoir. The
	// ingestor's OnEvict hook releases entries the moment a frame stops
	// being a representative candidate, so len(members) is bounded by
	// the vector budget however long the stream runs.
	members  map[int]bool
	released int
	state    string // "open", "finished", "aborted", "expired"
	jobID    string
	final    *StreamStatus // frozen status once closed
	// lastActive is the last time the session made ingest progress
	// (open, a chunk batch, or a retryable finish); the sweeper expires
	// open sessions idle past the store's timeout.
	lastActive time.Time
	// closedAt stamps the transition out of "open"; the sweeper evicts
	// the frozen status document after the store's retention window.
	closedAt time.Time
}

// StreamStatus is the poll document of GET /api/v1/streams/{id}.
type StreamStatus struct {
	ID             string `json:"id"`
	Workload       string `json:"workload"`
	FramesTotal    int    `json:"frames_total"`
	FramesIngested int    `json:"frames_ingested"`
	Strata         int    `json:"strata"`
	Merges         int    `json:"merges"`
	LiveVectors    int    `json:"live_vectors"`
	PeakVectors    int    `json:"peak_vectors"`
	VectorBudget   int    `json:"vector_budget"`
	PinnedFrames   int    `json:"pinned_frames"`
	ReleasedFrames int    `json:"released_frames"`
	State          string `json:"state"`
	JobID          string `json:"job_id,omitempty"`
}

// status snapshots the session. Callers hold sess.mu.
func (sess *streamSession) statusLocked() StreamStatus {
	if sess.final != nil {
		return *sess.final
	}
	return StreamStatus{
		ID:             sess.id,
		Workload:       sess.tr.Name,
		FramesTotal:    sess.tr.NumFrames(),
		FramesIngested: sess.ing.Frames(),
		Strata:         sess.ing.NumStrata(),
		Merges:         sess.ing.Merges(),
		LiveVectors:    sess.ing.LiveVectors(),
		PeakVectors:    sess.ing.PeakVectors(),
		VectorBudget:   sess.ing.VectorBudget(),
		PinnedFrames:   len(sess.members),
		ReleasedFrames: sess.released,
		State:          sess.state,
		JobID:          sess.jobID,
	}
}

// closeLocked freezes the status and drops the heavy ingest state so a
// finished or aborted session costs only its status document.
func (sess *streamSession) closeLocked(state string, now time.Time) {
	sess.state = state
	sess.closedAt = now
	st := sess.statusLocked()
	sess.final = &st
	sess.streamer = nil
	sess.ing = nil
	sess.members = nil
	sess.tr = nil
}

// streamStore registers open sessions under a concurrency bound.
type streamStore struct {
	mu    sync.Mutex
	seq   int
	byID  map[string]*streamSession
	open  int
	limit int
	// idle expires open sessions that stop ingesting (0 = never);
	// retention evicts closed sessions' status documents (0 = forever).
	idle      time.Duration
	retention time.Duration
	now       func() time.Time // injectable clock for tests
}

func newStreamStore(limit int, idle, retention time.Duration) *streamStore {
	if limit <= 0 {
		limit = DefaultMaxStreamSessions
	}
	if idle == 0 {
		idle = DefaultStreamIdleTimeout
	} else if idle < 0 {
		idle = 0
	}
	if retention == 0 {
		retention = DefaultStreamRetention
	} else if retention < 0 {
		retention = 0
	}
	return &streamStore{
		byID:      map[string]*streamSession{},
		limit:     limit,
		idle:      idle,
		retention: retention,
		now:       time.Now,
	}
}

// add registers a session if the open-session bound allows another.
func (st *streamStore) add(sess *streamSession) (string, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.open >= st.limit {
		return "", false
	}
	st.seq++
	sess.id = fmt.Sprintf("stream-%06d", st.seq)
	st.byID[sess.id] = sess
	st.open++
	return sess.id, true
}

func (st *streamStore) get(id string) (*streamSession, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sess, ok := st.byID[id]
	return sess, ok
}

// closed releases one open slot (the session stays pollable).
func (st *streamStore) closed() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.open > 0 {
		st.open--
	}
}

// remove evicts a session's entry entirely (closed sessions only —
// their slot was already released).
func (st *streamStore) remove(id string) {
	st.mu.Lock()
	delete(st.byID, id)
	st.mu.Unlock()
}

// sweep expires open sessions idle past the timeout (freeing their
// slots) and evicts closed sessions past the retention window. It runs
// opportunistically at the top of every stream handler, so abandoned
// capacity is reclaimed no later than the next request that could want
// it and byID stays bounded by the traffic of one retention window.
// The handlers' lock order is sess.mu -> st.mu, so the candidate list
// is copied out before any session lock is taken.
func (st *streamStore) sweep(now time.Time) (expired []string) {
	st.mu.Lock()
	sessions := make([]*streamSession, 0, len(st.byID))
	for _, sess := range st.byID {
		sessions = append(sessions, sess)
	}
	st.mu.Unlock()
	for _, sess := range sessions {
		sess.mu.Lock()
		switch {
		case sess.state == "open" && st.idle > 0 && now.Sub(sess.lastActive) >= st.idle:
			sess.closeLocked("expired", now)
			sess.mu.Unlock()
			st.closed()
			expired = append(expired, sess.id)
		case sess.final != nil && st.retention > 0 && now.Sub(sess.closedAt) >= st.retention:
			sess.mu.Unlock()
			st.remove(sess.id)
		default:
			sess.mu.Unlock()
		}
	}
	return expired
}

// StreamOpenResponse answers POST /api/v1/streams.
type StreamOpenResponse struct {
	StreamID string `json:"stream_id"`
	Workload string `json:"workload"`
	// FramesTotal is the full workload length; a session may finish
	// after fewer (the estimate then covers the streamed prefix).
	FramesTotal int `json:"frames_total"`
}

// streamChunkRequest is the body of POST /api/v1/streams/{id}/chunks:
// replay the next Count frames of the workload into the stratifier.
type streamChunkRequest struct {
	Count int `json:"count"`
}

// StreamFinishResponse answers POST /api/v1/streams/{id}/finish.
type StreamFinishResponse struct {
	StreamID string `json:"stream_id"`
	SubmitResponse
}

// sweepStreams reclaims idle and stale sessions; every stream handler
// calls it first, so a full session table always self-heals before the
// request it would otherwise starve.
func (s *Server) sweepStreams() {
	for _, id := range s.streams.sweep(s.streams.now()) {
		s.streamsExpired.Inc()
		s.logf("serve: %s expired after %s idle", id, s.streams.idle)
	}
}

func (s *Server) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	s.sweepStreams()
	if s.tenants != nil {
		tenant := r.Header.Get(TenantHeader)
		if ok, retry := s.tenants.Admit(tenant); !ok {
			s.throttled.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("tenant %q over its submission rate; retry later", tenant))
			return
		}
	}
	req, err := DecodeCampaignRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Stream == nil {
		writeError(w, http.StatusBadRequest, "stream session needs a stream spec")
		return
	}
	tr, err := s.cache.Trace(r.Context(), req.WorkloadKey(), req.BuildTrace)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("build trace: %v", err))
		return
	}
	streamer, err := funcsim.NewStreamer(tr)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("open stream: %v", err))
		return
	}
	sess := &streamSession{
		req:        req,
		tr:         tr,
		streamer:   streamer,
		members:    map[int]bool{},
		state:      "open",
		lastActive: s.streams.now(),
	}
	scfg := req.StreamConfig()
	scfg.OnEvict = func(frame int) {
		// Runs inside ing.Add under sess.mu: the frame left every
		// reservoir, so its pinned payload goes with it.
		delete(sess.members, frame)
		sess.released++
	}
	vs, fs := streamer.Static()
	sess.ing = stream.NewIngestor(tr.Name, vs, fs, scfg)
	id, ok := s.streams.add(sess)
	if !ok {
		s.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(1, 1, req.WorkloadKey())))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("open stream sessions at capacity (%d); retry later", s.streams.limit))
		return
	}
	s.streamsOpened.Inc()
	s.logf("serve: %s opened (%s, %d frames)", id, tr.Name, tr.NumFrames())
	writeJSON(w, http.StatusCreated, StreamOpenResponse{StreamID: id, Workload: tr.Name, FramesTotal: tr.NumFrames()})
}

func (s *Server) handleStreamStatus(w http.ResponseWriter, r *http.Request) {
	s.sweepStreams()
	sess, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream")
		return
	}
	sess.mu.Lock()
	st := sess.statusLocked()
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStreamChunk(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	s.sweepStreams()
	sess, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream")
		return
	}
	var creq streamChunkRequest
	if err := decodeBody(r.Body, &creq); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if creq.Count < 1 || creq.Count > maxChunkCount {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("chunk count %d out of [1, %d]", creq.Count, maxChunkCount))
		return
	}
	// Ingest in bounded batches, dropping the session lock between them
	// so status polls interleave with even the largest chunk. Ingest
	// order stays the workload's frame order whatever the interleaving:
	// each batch replays from wherever the ingestor's frame cursor
	// stands when the lock is reacquired.
	var (
		st       StreamStatus
		ingested int
		profs    []funcsim.FrameProfile // one batch's characterization, reused across batches
	)
	for ingested < creq.Count {
		sess.mu.Lock()
		if sess.state != "open" {
			state := sess.state
			sess.mu.Unlock()
			writeError(w, http.StatusConflict, fmt.Sprintf("stream is %s", state))
			return
		}
		remaining := sess.tr.NumFrames() - sess.ing.Frames()
		if remaining == 0 {
			if ingested == 0 {
				sess.mu.Unlock()
				writeError(w, http.StatusConflict, "stream exhausted the workload; finish it")
				return
			}
			// The chunk over-asked (or raced another chunk to the end):
			// report the frames that were ingested, like the old clamp.
			st = sess.statusLocked()
			sess.mu.Unlock()
			break
		}
		n := creq.Count - ingested
		if n > remaining {
			n = remaining
		}
		if n > streamIngestBatch {
			n = streamIngestBatch
		}
		// Characterize the batch across GOMAXPROCS workers, then ingest
		// it in frame order.
		lo := sess.ing.Frames()
		if cap(profs) < n {
			profs = make([]funcsim.FrameProfile, n)
		}
		profs = profs[:n]
		if err := sess.streamer.ProfileRange(r.Context(), profs, lo); err != nil {
			sess.mu.Unlock()
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		for i := range profs {
			f := lo + i
			// Pin before Add: the eviction hook may release this very frame
			// during ingest (it never made any reservoir).
			sess.members[f] = true
			if err := sess.ing.Add(&profs[i]); err != nil {
				delete(sess.members, f)
				sess.mu.Unlock()
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("frame %d: %v", f, err))
				return
			}
		}
		ingested += n
		sess.lastActive = s.streams.now()
		st = sess.statusLocked()
		sess.mu.Unlock()
	}
	s.streamChunks.Inc()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStreamFinish(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	s.sweepStreams()
	sess, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream")
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state != "open" {
		writeError(w, http.StatusConflict, fmt.Sprintf("stream is %s", sess.state))
		return
	}
	frames := sess.ing.Frames()
	if frames == 0 {
		writeError(w, http.StatusBadRequest, "empty stream: ingest at least one chunk before finishing")
		return
	}
	snap, err := sess.ing.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("strata snapshot: %v", err))
		return
	}
	// A session that consumed the whole workload is the same campaign a
	// direct streaming submission names — share its fingerprint (and
	// therefore its cached result).
	fpFrames := frames
	if frames == sess.tr.NumFrames() {
		fpFrames = 0
	}
	fp := sess.req.StreamFingerprint(fpFrames)
	s.submitted.Inc()
	j, fresh := s.store.Submit(sess.req, fp, time.Now())
	if fresh {
		j.StreamSnapshot = snap
		j.StreamMaxFrames = frames
		if !s.queue.TryEnqueue(j) {
			// Admission refused: the session stays open so the client
			// can retry the finish later (the retry window restarts the
			// idle clock).
			sess.lastActive = s.streams.now()
			s.store.Remove(j)
			s.rejected.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.queue.Depth(), s.queue.Capacity(), fp)))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("admission queue full (capacity %d); retry later", s.queue.Capacity()))
			return
		}
	} else {
		s.deduped.Inc()
	}
	sess.jobID = j.ID
	sess.closeLocked("finished", s.streams.now())
	s.streams.closed()
	s.streamsFinished.Inc()
	s.logf("serve: %s finished after %d frames -> %s", sess.id, frames, j.ID)
	writeJSON(w, http.StatusAccepted, StreamFinishResponse{
		StreamID:       sess.id,
		SubmitResponse: SubmitResponse{JobID: j.ID, Fingerprint: fp, State: j.State(), Deduped: !fresh},
	})
}

func (s *Server) handleStreamAbort(w http.ResponseWriter, r *http.Request) {
	s.sweepStreams()
	sess, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream")
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state != "open" {
		writeError(w, http.StatusConflict, fmt.Sprintf("stream is %s", sess.state))
		return
	}
	sess.closeLocked("aborted", s.streams.now())
	s.streams.closed()
	s.logf("serve: %s aborted", sess.id)
	writeJSON(w, http.StatusOK, sess.statusLocked())
}

// decodeBody strictly decodes one small JSON document.
func decodeBody(r io.Reader, v any) error {
	body, err := io.ReadAll(io.LimitReader(r, MaxRequestBytes+1))
	if err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	if len(body) > MaxRequestBytes {
		return fmt.Errorf("decode body: exceeds %d bytes", MaxRequestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	if dec.More() {
		return errors.New("decode body: trailing data")
	}
	return nil
}

// executeStreaming runs a streaming campaign job: the online stratifier
// replaces batch characterization/selection, phase 2 reuses the same
// per-representative FrameStats cache (and dispatcher, in coordinator
// mode) as batch campaigns, and a session-submitted job is seeded from
// the session's strata snapshot so ingest work is never redone.
func (s *Server) executeStreaming(ctx context.Context, j *Job) (*CampaignReport, error) {
	req := j.Req
	tr, err := s.cache.Trace(ctx, req.WorkloadKey(), req.BuildTrace)
	if err != nil {
		return nil, fmt.Errorf("build trace: %w", err)
	}
	gpu, err := req.GPUConfig()
	if err != nil {
		return nil, err
	}
	fp := megsim.RunFingerprint(tr, gpu)
	inner := megsim.FrameRunner(tr, gpu)
	if s.cfg.Dispatcher != nil {
		inner = s.cfg.Dispatcher.FrameRunner(fp, req)
	}
	fn := s.cache.FrameRunner(fp, inner)

	jobReg := obs.NewWith(obs.Options{TraceCapacity: -1})
	rcfg := req.ResilienceConfig()
	rcfg.Obs = jobReg
	rcfg.Fingerprint = fp
	if s.cfg.CheckpointDir != "" {
		rcfg.CheckpointPath = filepath.Join(s.cfg.CheckpointDir, j.Fingerprint+".ckpt")
		rcfg.Resume = true
	}
	rcfg.Log = s.cfg.Log

	opts := megsim.StreamingOptions{
		Stream:     req.StreamConfig(),
		Resilience: rcfg,
		EagerEvery: req.Stream.EagerEvery,
		Runner:     fn,
		Snapshot:   j.StreamSnapshot,
		MaxFrames:  j.StreamMaxFrames,
	}
	start := time.Now()
	s.executed.Inc()
	srun, err := megsim.SampleStreaming(ctx, tr, opts, gpu)
	s.reg.Merge(jobReg)
	if err != nil {
		return nil, err
	}
	return NewStreamingCampaignReport(srun, time.Since(start)), nil
}
