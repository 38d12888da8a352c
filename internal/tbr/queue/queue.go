// Package queue models the bounded inter-stage queues of the GPU
// pipeline (Table I: vertex, triangle/tile, fragment and color queues).
// A queue slot is occupied from the cycle an item is admitted until the
// cycle the downstream consumer finishes it; when all slots are full the
// producer stalls — this is how back-pressure propagates between pipeline
// stages in the timing model.
//
// Usage is two-phase because an item's departure time is only known
// after downstream latency is computed:
//
//	at := q.Admit(ready)   // earliest cycle the item can enter
//	done := process(at)    // downstream work
//	q.Commit(done)         // the slot frees at done
package queue

import (
	"fmt"

	"repro/internal/obs"
)

// Stats counts queue activity.
type Stats struct {
	// Admitted is the number of items that passed through.
	Admitted uint64
	// Stalls is the number of items that had to wait for a slot.
	Stalls uint64
	// StallCycles is the total wait time.
	StallCycles uint64
}

// Queue is a bounded FIFO of in-flight pipeline items.
type Queue struct {
	name    string
	doneAt  []uint64
	head    int
	pending bool
	Stats   Stats

	// Observability handle, nil unless Instrument was called with an
	// enabled registry. The occupancy distribution is the one metric
	// that cannot be derived from Stats afterwards, so each admit
	// tallies its occupancy into tally (tally[k] counts admits that
	// found k slots busy) and RecordOccupancy folds the tally into the
	// histogram once per frame; the additive Stats counters are
	// exported at frame granularity by the simulator. The
	// uninstrumented Admit pays one nil check.
	obsOccupancy *obs.Histogram
	tally        []uint64

	// checkInv arms the occupancy invariant in Admit (see
	// EnableInvariantCheck). Off by default; the check reads only the
	// head slot.
	checkInv bool
}

// New returns a queue with the given number of entries. It panics on a
// non-positive size (configurations are static).
func New(name string, entries int) *Queue {
	if entries <= 0 {
		panic(fmt.Sprintf("queue %q: entries must be positive, got %d", name, entries))
	}
	return &Queue{name: name, doneAt: make([]uint64, entries)}
}

// Name returns the queue's name.
func (q *Queue) Name() string { return q.name }

// Instrument resolves a "queue.<name>.occupancy" histogram sampled at
// each admit, replacing any earlier binding and discarding samples not
// yet recorded, so nothing tallied for one registry reaches the next.
// With a nil registry the queue is uninstrumented and Admit
// pays only a nil check.
func (q *Queue) Instrument(r *obs.Registry) {
	q.obsOccupancy = nil
	clear(q.tally)
	if r.Enabled() {
		q.obsOccupancy = r.Histogram("queue." + q.name + ".occupancy")
		if q.tally == nil {
			q.tally = make([]uint64, len(q.doneAt)+1)
		}
	}
}

// RecordOccupancy folds the occupancy samples tallied since the last
// call into the histogram bound by Instrument, leaving it exactly as one
// Observe per admit would, and clears the tally. The simulator calls it
// once per frame; it is a no-op on an uninstrumented queue.
func (q *Queue) RecordOccupancy() {
	if q.obsOccupancy == nil {
		return
	}
	for k, n := range q.tally {
		if n != 0 {
			q.obsOccupancy.ObserveN(uint64(k), n)
			q.tally[k] = 0
		}
	}
}

// Admit returns the earliest cycle >= ready at which the item can enter
// the queue (waiting for the oldest occupant to leave if full). Each
// Admit must be followed by exactly one Commit.
func (q *Queue) Admit(ready uint64) uint64 {
	if q.pending {
		q.panicPendingAdmit()
	}
	q.pending = true
	q.Stats.Admitted++
	if q.obsOccupancy != nil {
		q.tallyOccupancy(ready)
	}
	free := q.doneAt[q.head]
	enter := ready
	if free > ready {
		q.Stats.Stalls++
		q.Stats.StallCycles += free - ready
		enter = free
	}
	if q.checkInv {
		q.verifyAdmit(enter)
	}
	return enter
}

//go:noinline
func (q *Queue) panicPendingAdmit() {
	panic(fmt.Sprintf("queue %q: Admit called with a Commit pending", q.name))
}

// tallyOccupancy counts the occupancy at admit time, the slots whose
// occupant has not left by the cycle the new item is ready, into the
// tally. The count is branch-free: with cycles far below 2^63, done >
// ready exactly when ready-done wraps and sets the top bit.
func (q *Queue) tallyOccupancy(ready uint64) {
	occupied := uint64(0)
	for _, done := range q.doneAt {
		occupied += (ready - done) >> 63
	}
	q.tally[occupied]++
}

// EnableInvariantCheck arms the occupancy invariant: every Admit
// verifies that a slot is actually free at the cycle the item enters,
// i.e. that occupancy never exceeds the configured capacity. Disabled
// queues pay only a bool check.
func (q *Queue) EnableInvariantCheck() { q.checkInv = true }

// verifyAdmit panics if admitting an item at cycle enter would exceed
// the queue capacity. In a FIFO ring the occupancy invariant reduces to
// the head slot: if the oldest occupant has left by cycle enter, at
// most len-1 slots are busy; if it has not, the ring is over capacity.
// It can only fire if the stall-resolution logic or the ring state is
// corrupted, which is exactly what it exists to detect.
func (q *Queue) verifyAdmit(enter uint64) {
	if q.doneAt[q.head] > enter {
		panic(fmt.Sprintf("queue %q: occupancy invariant violated: item admitted at cycle %d while the oldest occupant holds its slot until %d (capacity %d)",
			q.name, enter, q.doneAt[q.head], len(q.doneAt)))
	}
}

// Commit records that the item admitted by the last Admit leaves the
// queue at cycle done.
func (q *Queue) Commit(done uint64) {
	if !q.pending {
		q.panicCommitWithoutAdmit()
	}
	q.pending = false
	q.doneAt[q.head] = done
	q.head++
	if q.head == len(q.doneAt) {
		q.head = 0
	}
}

//go:noinline
func (q *Queue) panicCommitWithoutAdmit() {
	panic(fmt.Sprintf("queue %q: Commit without Admit", q.name))
}

// ResetTime empties the queue (all slots free at cycle 0) but keeps
// statistics. Used at frame boundaries.
func (q *Queue) ResetTime() {
	for i := range q.doneAt {
		q.doneAt[i] = 0
	}
	q.head = 0
	q.pending = false
}
