package obs

import (
	"reflect"
	"testing"
)

// TestMergeSnapshotEquivalentToMerge is the contract checkpoint/resume
// rests on: folding Snapshot(x) into a registry must be
// indistinguishable from folding x itself, so deltas persisted as plain
// data and replayed later reproduce the uninterrupted registry.
func TestMergeSnapshotEquivalentToMerge(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("a").Add(3)
		r.Counter("zero") // namespace-only counter
		r.Histogram("h").Observe(7)
		r.Histogram("h").Observe(900)
		r.Span("frame", 2, 100, 50, map[string]uint64{"cycles": 50})
		return r
	}

	viaMerge := New()
	viaMerge.Merge(build())
	viaSnapshot := New()
	viaSnapshot.MergeSnapshot(build().Snapshot())

	a, b := viaMerge.Snapshot(), viaSnapshot.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("MergeSnapshot diverged from Merge:\n%+v\nvs\n%+v", a, b)
	}
	if _, ok := b.Counters["zero"]; !ok {
		t.Fatal("zero-valued counter lost: namespace not preserved")
	}
	if h := b.Histograms["h"]; h.Count != 2 || h.Min != 7 || h.Max != 900 || h.Sum != 907 {
		t.Fatalf("histogram summary wrong after MergeSnapshot: %+v", h)
	}
}

// TestMergeSnapshotOrderIndependent: replaying per-frame deltas in any
// order must converge to the same snapshot (after canonical sorting) —
// what makes resumed runs byte-identical regardless of the kill point.
func TestMergeSnapshotOrderIndependent(t *testing.T) {
	delta := func(frame uint64) *Snapshot {
		r := New()
		r.Counter("frames").Inc()
		r.Histogram("cycles").Observe(100 * frame)
		r.Span("frame", frame, frame*1000, 100, nil)
		return r.Snapshot()
	}

	fwd, rev := New(), New()
	for f := uint64(0); f < 5; f++ {
		fwd.MergeSnapshot(delta(f))
	}
	for f := uint64(5); f > 0; f-- {
		rev.MergeSnapshot(delta(f - 1))
	}
	if !reflect.DeepEqual(fwd.Snapshot(), rev.Snapshot()) {
		t.Fatal("delta replay order changed the merged snapshot")
	}
}

// TestMergeSnapshotNilSafety: nil receivers and nil snapshots no-op.
func TestMergeSnapshotNilSafety(t *testing.T) {
	var nilReg *Registry
	nilReg.MergeSnapshot(New().Snapshot()) // must not panic
	r := New()
	r.MergeSnapshot(nil)
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Events) != 0 {
		t.Fatalf("nil snapshot merged data: %+v", s)
	}
}
