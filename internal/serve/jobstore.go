package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// JobState is a job's lifecycle position.
type JobState string

const (
	// jobQueued: admitted, waiting for a worker.
	jobQueued JobState = "queued"
	// jobRunning: a worker is executing the campaign.
	jobRunning JobState = "running"
	// JobSucceeded: the report is ready.
	JobSucceeded JobState = "succeeded"
	// JobFailed: the campaign errored; resubmitting retries it.
	JobFailed JobState = "failed"
	// JobInterrupted: the service drained mid-run; progress is
	// checkpointed, and resubmitting the identical campaign resumes it.
	JobInterrupted JobState = "interrupted"
)

// terminal reports whether the state can never change again.
func (s JobState) terminal() bool {
	return s == JobSucceeded || s == JobFailed || s == JobInterrupted
}

// job is one admitted campaign. The submission's fingerprint is the
// job's identity for deduplication: concurrent identical submissions
// attach to one Job, and every client polling it reads the same
// rendered report bytes.
type job struct {
	// ID is the service-assigned job identifier.
	ID string
	// Fingerprint is the campaign's content address.
	Fingerprint string
	// Req is the validated request.
	Req *CampaignRequest
	// Submitted is the admission time.
	Submitted time.Time

	mu         sync.Mutex
	state      JobState
	errMsg     string
	report     *CampaignReport
	reportJSON []byte
	done       chan struct{}
}

// State returns the current lifecycle state.
func (j *job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == jobQueued {
		j.state = jobRunning
	}
}

// complete stores the report and its rendered bytes and marks success.
func (j *job) complete(rep *CampaignReport, rendered []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state = JobSucceeded
	j.report = rep
	j.reportJSON = rendered
	close(j.done)
}

// fail marks the job failed (or interrupted when the service was
// draining — the distinction tells clients whether resubmitting will
// resume from a checkpoint).
func (j *job) fail(state JobState, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state = state
	j.errMsg = msg
	close(j.done)
}

// Result returns the rendered report bytes once succeeded.
func (j *job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobSucceeded {
		return nil, false
	}
	return j.reportJSON, true
}

// JobStatus is the poll document of /api/v1/jobs/{id}.
type JobStatus struct {
	ID          string   `json:"id"`
	Fingerprint string   `json:"fingerprint"`
	State       JobState `json:"state"`
	Error       string   `json:"error,omitempty"`
	Degraded    bool     `json:"degraded,omitempty"`
}

// Status snapshots the job for clients.
func (j *job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.ID, Fingerprint: j.Fingerprint, State: j.state, Error: j.errMsg}
	if j.report != nil && j.report.Resilience != nil {
		st.Degraded = j.report.Resilience.Degraded
	}
	return st
}

// store is the in-memory job registry with a fingerprint index for
// content-addressed deduplication.
type store struct {
	mu   sync.Mutex
	seq  int
	byID map[string]*job
	byFP map[string]*job
}

// newStore returns an empty job store.
func newStore() *store {
	return &store{byID: map[string]*job{}, byFP: map[string]*job{}}
}

// Submit returns the job for a campaign fingerprint. If a live or
// succeeded job with the same fingerprint exists, it is returned with
// fresh=false (the submission deduplicates onto it — this is the
// job-level singleflight AND the job-level result cache in one). A
// failed or interrupted job is replaced by a fresh one, so resubmission
// is the retry/resume path.
func (s *store) Submit(req *CampaignRequest, fp string, now time.Time) (j *job, fresh bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.byFP[fp]; j != nil {
		if st := j.State(); st != JobFailed && st != JobInterrupted {
			return j, false
		}
	}
	s.seq++
	j = &job{
		ID:          fmt.Sprintf("job-%06d", s.seq),
		Fingerprint: fp,
		Req:         req,
		Submitted:   now,
		state:       jobQueued,
		done:        make(chan struct{}),
	}
	s.byID[j.ID] = j
	s.byFP[fp] = j
	return j, true
}

// Remove forgets a job (used when admission fails after registration —
// the queue was full, so the job never existed as far as clients know).
func (s *store) Remove(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byID, j.ID)
	if s.byFP[j.Fingerprint] == j {
		delete(s.byFP, j.Fingerprint)
	}
}

// Get returns a job by ID.
func (s *store) Get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// List returns every job, ascending by ID.
func (s *store) List() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.byID))
	for _, j := range s.byID {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
