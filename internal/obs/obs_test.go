package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestNilRegistryIsFreeNoOp(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	// Every operation must be a safe no-op.
	r.Counter("x").Add(5)
	r.Counter("x").Inc()
	r.Histogram("h").Observe(1)
	r.Span("s", 0, 0, 10, nil)
	r.Merge(New())
	if r.NewLocal() != nil {
		t.Fatal("nil registry produced a non-nil local")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Events) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestCounterAndHistogramBasics(t *testing.T) {
	r := New()
	c := r.Counter("hits")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("hits") != c {
		t.Fatal("same name resolved to a different counter")
	}

	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 2, 3, 1024, math.MaxUint64} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Min != 0 || s.Max != math.MaxUint64 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	// 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 1024 -> 11; MaxUint64 -> 64.
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 11: 1, 64: 1}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
}

// TestObserveNMatchesRepeatedObserve checks that ObserveN(v, n) leaves a
// histogram exactly as n calls of Observe(v) do, wrapping sum included,
// and that n == 0 records nothing (not even min/max).
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	samples := []struct{ v, n uint64 }{{7, 3}, {0, 2}, {1 << 40, 5}, {math.MaxUint64, 2}, {9, 0}, {3, 1}}
	a, b := New().Histogram("a"), New().Histogram("b")
	for _, s := range samples {
		for i := uint64(0); i < s.n; i++ {
			a.Observe(s.v)
		}
		b.ObserveN(s.v, s.n)
	}
	if sa, sb := a.snapshot(), b.snapshot(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("ObserveN %+v, repeated Observe %+v", sb, sa)
	}

	h := New().Histogram("empty")
	h.ObserveN(5, 0)
	if s := h.snapshot(); !reflect.DeepEqual(s, HistogramSnapshot{}) {
		t.Fatalf("ObserveN(v, 0) recorded %+v", s)
	}
	var nilH *Histogram
	nilH.ObserveN(1, 1)
}

func TestMergeSemantics(t *testing.T) {
	parent := New()
	parent.Counter("shared").Add(10)
	parent.Histogram("h").Observe(100)
	parent.Span("p", 1, 50, 5, nil)

	a := parent.NewLocal()
	a.Counter("shared").Add(7)
	a.Counter("only_a").Add(1)
	a.Histogram("h").Observe(1)
	a.Span("a", 2, 10, 3, nil)

	b := parent.NewLocal()
	b.Counter("shared").Add(5)
	b.Histogram("h").Observe(200)
	b.Histogram("only_b").Observe(4)
	b.Span("b", 3, 20, 2, nil)

	parent.Merge(a)
	parent.Merge(b)
	s := parent.Snapshot()

	if s.Counters["shared"] != 22 || s.Counters["only_a"] != 1 {
		t.Fatalf("merged counters wrong: %v", s.Counters)
	}
	h := s.Histograms["h"]
	if h.Count != 3 || h.Sum != 301 || h.Min != 1 || h.Max != 200 {
		t.Fatalf("merged histogram wrong: %+v", h)
	}
	if hb := s.Histograms["only_b"]; hb.Count != 1 || hb.Min != 4 || hb.Max != 4 {
		t.Fatalf("only_b histogram wrong: %+v", hb)
	}
	// Events sort canonically by timestamp.
	var names []string
	for _, e := range s.Events {
		names = append(names, e.Name)
	}
	if !reflect.DeepEqual(names, []string{"a", "b", "p"}) {
		t.Fatalf("event order = %v, want [a b p]", names)
	}
}

// TestMergeOrderIndependence verifies the determinism property the
// parallel drivers rely on: merging the same worker-local registries in
// any order yields identical snapshots.
func TestMergeOrderIndependence(t *testing.T) {
	build := func(order []int) *Snapshot {
		parent := New()
		locals := make([]*Registry, 3)
		for i := range locals {
			l := parent.NewLocal()
			l.Counter("c").Add(uint64(i + 1))
			l.Histogram("h").Observe(uint64(10 * (i + 1)))
			l.Span("s", uint64(i), uint64(100*i), 7, nil)
			locals[i] = l
		}
		for _, i := range order {
			parent.Merge(locals[i])
		}
		return parent.Snapshot()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ by merge order:\n%+v\nvs\n%+v", a, b)
	}
}

func TestRingBufferWraparound(t *testing.T) {
	r := NewWith(Options{TraceCapacity: 4})
	for i := 0; i < 10; i++ {
		r.Span("e", 0, uint64(i), 1, nil)
	}
	s := r.Snapshot()
	if len(s.Events) != 4 {
		t.Fatalf("retained %d events, want 4", len(s.Events))
	}
	if s.DroppedEvents != 6 {
		t.Fatalf("dropped = %d, want 6", s.DroppedEvents)
	}
	// The oldest events are overwritten: timestamps 6..9 remain.
	for i, e := range s.Events {
		if want := uint64(6 + i); e.TS != want {
			t.Fatalf("event %d has ts %d, want %d", i, e.TS, want)
		}
	}
}

func TestRingBufferDisabledTimeline(t *testing.T) {
	r := NewWith(Options{TraceCapacity: -1})
	r.Span("e", 0, 0, 1, nil)
	s := r.Snapshot()
	if len(s.Events) != 0 || s.DroppedEvents != 1 {
		t.Fatalf("timeline-off snapshot: %d events, %d dropped", len(s.Events), s.DroppedEvents)
	}
	// A local of a timeline-off registry is also timeline-off.
	l := r.NewLocal()
	l.Span("e", 0, 0, 1, nil)
	if ls := l.Snapshot(); len(ls.Events) != 0 {
		t.Fatal("local of timeline-off registry retained events")
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := New()
	r.Span("geometry", 3, 100, 42, map[string]uint64{"vertices": 7})
	snap := r.Snapshot()

	var buf bytes.Buffer
	if err := snap.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	got := ct.TraceEvents
	if !reflect.DeepEqual(got, snap.Events) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", got, snap.Events)
	}
	if got[0].Phase != "X" || got[0].Dur != 42 || got[0].Args["vertices"] != 7 {
		t.Fatalf("span fields lost: %+v", got[0])
	}
}

func TestSnapshotJSONHasStableShape(t *testing.T) {
	r := New()
	r.Counter("a").Add(1)
	r.Histogram("h").Observe(3)
	var b1, b2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical snapshots serialized differently")
	}
}

// TestConcurrentSharedRegistry hammers one shared registry from many
// goroutines; it exists to fail under -race if any path is unsafe, and
// checks the totals so lost updates are caught even without -race.
func TestConcurrentSharedRegistry(t *testing.T) {
	const goroutines = 8
	const perG = 2000
	r := NewWith(Options{TraceCapacity: 64}) // small: force wraparound under contention
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("hist")
			for i := 0; i < perG; i++ {
				c.Inc()
				r.Counter("named").Add(2) // exercise the map path too
				h.Observe(uint64(i))
				r.Span("s", uint64(g), uint64(i), 1, nil)
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["shared"] != goroutines*perG {
		t.Fatalf("shared = %d, want %d", s.Counters["shared"], goroutines*perG)
	}
	if s.Counters["named"] != 2*goroutines*perG {
		t.Fatalf("named = %d, want %d", s.Counters["named"], 2*goroutines*perG)
	}
	h := s.Histograms["hist"]
	if h.Count != goroutines*perG || h.Min != 0 || h.Max != perG-1 {
		t.Fatalf("hist = %+v", h)
	}
	if len(s.Events)+int(s.DroppedEvents) != goroutines*perG {
		t.Fatalf("events %d + dropped %d != emitted %d", len(s.Events), s.DroppedEvents, goroutines*perG)
	}
}

// TestConcurrentLocalMerge is the share-nothing pattern the parallel
// drivers use: worker-local registries, merged after join. Designed to
// fail under -race if merge reads worker state unsafely, and checks
// exact totals.
func TestConcurrentLocalMerge(t *testing.T) {
	const workers = 8
	const perW = 5000
	parent := New()
	locals := make([]*Registry, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		locals[w] = parent.NewLocal()
		wg.Add(1)
		go func(l *Registry, w int) {
			defer wg.Done()
			c := l.Counter("work")
			h := l.Histogram("lat")
			for i := 0; i < perW; i++ {
				c.Inc()
				h.Observe(uint64(w*perW + i))
				l.Span("item", uint64(w), uint64(i), 1, nil)
			}
		}(locals[w], w)
	}
	wg.Wait()
	for _, l := range locals {
		parent.Merge(l)
	}
	s := parent.Snapshot()
	if s.Counters["work"] != workers*perW {
		t.Fatalf("work = %d, want %d", s.Counters["work"], workers*perW)
	}
	h := s.Histograms["lat"]
	if h.Count != workers*perW || h.Min != 0 || h.Max != workers*perW-1 {
		t.Fatalf("lat = %+v", h)
	}
	var sum uint64
	for _, b := range h.Buckets {
		sum += b
	}
	if sum != workers*perW {
		t.Fatalf("bucket total %d, want %d", sum, workers*perW)
	}
}
