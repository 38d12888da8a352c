package serve

import "sync"

// admissionQueue is the bounded intake between HTTP submission and the
// worker pool. Admission never blocks: a full queue is reported to the
// caller (the server answers 429 with Retry-After) instead of letting
// submissions pile up unboundedly — backpressure is the contract.
type admissionQueue struct {
	mu     sync.Mutex
	ch     chan *job
	closed bool
}

func newAdmissionQueue(capacity int) *admissionQueue {
	return &admissionQueue{ch: make(chan *job, capacity)}
}

// TryEnqueue admits a job if there is room; it never blocks. Returns
// false when the queue is full or closed (draining).
func (q *admissionQueue) TryEnqueue(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	select {
	case q.ch <- j:
		return true
	default:
		return false
	}
}

// Close stops admission; workers drain what is already queued.
func (q *admissionQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
}

// Depth returns the number of queued (not yet claimed) jobs.
func (q *admissionQueue) Depth() int { return len(q.ch) }

// Capacity returns the admission bound.
func (q *admissionQueue) Capacity() int { return cap(q.ch) }
