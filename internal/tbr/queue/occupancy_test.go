package queue

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
)

const occupancyName = "queue.q.occupancy"

// TestOccupancyTallyMatchesPerAdmitObserve drives an instrumented queue
// with random ready/done cycles and checks that the tally, folded by
// RecordOccupancy at random points, leaves the histogram exactly as one
// Observe per admit of the directly counted occupancy would.
func TestOccupancyTallyMatchesPerAdmitObserve(t *testing.T) {
	for _, entries := range []int{1, 3, 16, 64} {
		rng := rand.New(rand.NewSource(int64(entries)))
		got, want := obs.New(), obs.New()
		q := New("q", entries)
		q.Instrument(got)
		clock := uint64(0)
		for i := 0; i < 5000; i++ {
			clock += uint64(rng.Intn(4))
			ready := clock
			if rng.Intn(4) == 0 && ready > 50 {
				ready -= uint64(rng.Intn(50)) // readiness need not be monotone
			}
			busy := uint64(0)
			for _, done := range q.doneAt {
				if done > ready {
					busy++
				}
			}
			want.Histogram(occupancyName).Observe(busy)
			enter := q.Admit(ready)
			q.Commit(enter + uint64(rng.Intn(200)))
			if rng.Intn(100) == 0 {
				q.RecordOccupancy()
			}
			if rng.Intn(500) == 0 {
				q.ResetTime()
			}
		}
		q.RecordOccupancy()
		g := got.Snapshot().Histograms[occupancyName]
		w := want.Snapshot().Histograms[occupancyName]
		if w.Count != 5000 || !reflect.DeepEqual(g, w) {
			t.Errorf("entries %d: tallied %+v, per-admit %+v", entries, g, w)
		}
	}
}

// TestInstrumentDropsPendingTally checks that rebinding a queue does not
// carry samples tallied for one registry into the next, and that an
// uninstrumented queue records nothing.
func TestInstrumentDropsPendingTally(t *testing.T) {
	a, b := obs.New(), obs.New()
	q := New("q", 4)
	q.Instrument(a)
	q.Admit(0)
	q.Commit(10)
	q.Instrument(b) // the sample above was never recorded
	q.Admit(5)
	q.Commit(20)
	q.RecordOccupancy()
	if h := a.Snapshot().Histograms[occupancyName]; h.Count != 0 {
		t.Errorf("first registry recorded %+v", h)
	}
	if h := b.Snapshot().Histograms[occupancyName]; h.Count != 1 || h.Max != 1 {
		t.Errorf("second registry recorded %+v, want one sample of occupancy 1", h)
	}

	q.Instrument(nil)
	q.Admit(0)
	q.Commit(1)
	q.RecordOccupancy()
	q.Instrument(b)
	q.RecordOccupancy()
	if h := b.Snapshot().Histograms[occupancyName]; h.Count != 1 {
		t.Errorf("uninstrumented admits reached the histogram: %+v", h)
	}
}

// TestAdmitLeavesHistogramUntilFold pins the cost model of an
// instrumented queue: admits only tally, and the histogram changes once,
// when RecordOccupancy folds the tally. A queue that recorded into the
// histogram on every admit again would fail here.
func TestAdmitLeavesHistogramUntilFold(t *testing.T) {
	r := obs.New()
	q := New("q", 8)
	q.Instrument(r)
	for i := uint64(0); i < 100; i++ {
		q.Commit(q.Admit(i) + 20)
	}
	if h := r.Snapshot().Histograms[occupancyName]; h.Count != 0 {
		t.Fatalf("admits reached the histogram before the fold: %+v", h)
	}
	q.RecordOccupancy()
	if h := r.Snapshot().Histograms[occupancyName]; h.Count != 100 {
		t.Fatalf("fold recorded %d samples, want 100", h.Count)
	}
}
