// Package obs is the pipeline observability layer: allocation-conscious
// metrics (atomic counters, bounded histograms) and a span/event
// timeline backed by a ring buffer, exportable in the Chrome trace
// format (chrome://tracing, Perfetto).
//
// The layer is disabled by default and costs the hot path almost
// nothing when off: a nil *Registry is a fully functional no-op — every
// method on a nil Registry, Counter or Histogram returns immediately,
// so instrumentation points pay one predictable branch per event.
// Instrumented components resolve their *Counter/*Histogram handles
// once at construction; when the registry is nil the handles are nil
// and the per-access cost is a nil check.
//
// Concurrency model: a Registry is safe for concurrent use (counters
// and histogram buckets are atomic; the timeline is mutex-guarded), but
// the intended high-throughput pattern is share-nothing: each worker
// goroutine records into its own local registry (NewLocal) and the
// parent merges them after the workers join (Merge). Merging is
// order-independent for counters and histograms, and Snapshot sorts
// timeline events into a canonical order, so parallel runs produce
// byte-identical snapshots as long as the ring buffer did not overflow.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops), which is how disabled instrumentation
// stays free.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable signed value — a level, not an accumulation:
// queue depths, in-flight counts, worker liveness. All methods are safe
// on a nil receiver (no-ops), like Counter.
//
// Gauges merge by summation (Merge/MergeSnapshot add the other side's
// value), which composes level metrics recorded by disjoint owners —
// per-worker in-flight gauges sum to the fleet's in-flight level. A
// gauge shared between registries should live in exactly one of them.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// value returns the current level (0 on nil).
func (g *Gauge) value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// values whose bit length is i (bucket 0 holds only zero), i.e. buckets
// are exponential with base 2 and cover the full uint64 range.
const histBuckets = 65

// Histogram is a bounded histogram over uint64 samples with fixed
// power-of-two buckets plus count/sum/min/max. All updates are atomic;
// all methods are safe on a nil receiver.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64 // stored as ^value so zero means "no samples"
	max     atomic.Uint64
}

// bucketOf returns the bucket index of a sample.
func bucketOf(v uint64) int { return bits.Len64(v) }

// Observe records one sample.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v, leaving the histogram exactly
// as n calls of Observe(v) would (sums wrap alike). n == 0 records
// nothing. It lets a hot loop tally samples in a plain array and fold
// them in once, off the per-event path.
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.buckets[bucketOf(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
	for {
		cur := h.min.Load()
		if ^cur <= v || h.min.CompareAndSwap(cur, ^v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= v || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// merge adds o's samples into h.
func (h *Histogram) merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	n := o.count.Load()
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(o.sum.Load())
	omin, omax := ^o.min.Load(), o.max.Load()
	for {
		cur := h.min.Load()
		if ^cur <= omin || h.min.CompareAndSwap(cur, ^omin) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= omax || h.max.CompareAndSwap(cur, omax) {
			break
		}
	}
}

// snapshot copies the histogram into plain data.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min = ^h.min.Load()
		s.Max = h.max.Load()
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]uint64)
			}
			s.Buckets[i] = n
		}
	}
	return s
}

// Options configures a Registry.
type Options struct {
	// TraceCapacity bounds the span/event ring buffer. Once full, new
	// events overwrite the oldest and Snapshot reports the drop count.
	// 0 selects defaultTraceCapacity; negative disables the timeline.
	TraceCapacity int
}

// defaultTraceCapacity is the default ring-buffer size (events).
const defaultTraceCapacity = 1 << 16

// Registry holds named counters, histograms and the event timeline. The
// zero value is not useful; use New or NewWith. A nil *Registry is the
// disabled implementation: every method no-ops.
type Registry struct {
	traceCap int

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	trace    traceRing
}

// New returns an enabled registry with default options.
func New() *Registry { return NewWith(Options{}) }

// NewWith returns an enabled registry with the given options.
func NewWith(o Options) *Registry {
	cap := o.TraceCapacity
	switch {
	case cap == 0:
		cap = defaultTraceCapacity
	case cap < 0:
		cap = 0
	}
	r := &Registry{
		traceCap: cap,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		trace:    traceRing{cap: cap},
	}
	return r
}

// Enabled reports whether the registry records anything. It is the
// single hot-path gate: one nil check.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) when the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op gauge) when the registry is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a no-op histogram) when the registry is nil.
func (r *Registry) Histogram(name string) *Histogram {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// NewLocal returns a fresh registry with the same configuration, for a
// worker goroutine to record into without sharing. Returns nil when the
// parent is nil, so the worker's instrumentation is free.
func (r *Registry) NewLocal() *Registry {
	if !r.Enabled() {
		return nil
	}
	return NewWith(Options{TraceCapacity: traceCapOpt(r.traceCap)})
}

// traceCapOpt maps an internal capacity back to an Options value.
func traceCapOpt(cap int) int {
	if cap == 0 {
		return -1
	}
	return cap
}

// Merge folds a worker-local registry into r: counter values add,
// histograms combine bucket-wise, and timeline events append in o's
// chronological order. Safe when either side is nil.
func (r *Registry) Merge(o *Registry) {
	if !r.Enabled() || o == nil {
		return
	}
	o.mu.Lock()
	counters := make(map[string]uint64, len(o.counters))
	for name, c := range o.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]int64, len(o.gauges))
	for name, g := range o.gauges {
		gauges[name] = g.value()
	}
	hists := make(map[string]*Histogram, len(o.hists))
	for name, h := range o.hists {
		hists[name] = h
	}
	events := o.trace.ordered()
	dropped := o.trace.dropped
	o.mu.Unlock()

	// Zero-valued counters are copied too: merging preserves the metric
	// namespace, so serial and parallel runs snapshot identical key sets.
	for name, v := range counters {
		r.Counter(name).Add(v)
	}
	for name, v := range gauges {
		r.Gauge(name).add(v)
	}
	for name, h := range hists {
		r.Histogram(name).merge(h)
	}
	r.mu.Lock()
	for i := range events {
		r.trace.push(events[i])
	}
	r.trace.dropped += dropped
	r.mu.Unlock()
}

// MergeSnapshot folds a plain-data snapshot back into the registry:
// counter values add, histogram summaries combine bucket-wise, and
// timeline events append in the snapshot's canonical order. It is the
// inverse direction of Snapshot and is equivalent to merging the
// registry the snapshot was taken from: checkpoint/resume restores
// persisted per-frame observability deltas through this, and because
// counters and histograms are additive and Snapshot sorts events
// canonically, replaying deltas in any order reproduces the
// uninterrupted registry byte-for-byte. Zero-valued counters merge too,
// preserving the metric namespace. Safe when either side is nil.
func (r *Registry) MergeSnapshot(s *Snapshot) {
	if !r.Enabled() || s == nil {
		return
	}
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).add(v)
	}
	for name, hs := range s.Histograms {
		r.Histogram(name).mergeSnapshot(hs)
	}
	r.mu.Lock()
	for i := range s.Events {
		r.trace.push(s.Events[i])
	}
	r.trace.dropped += s.DroppedEvents
	r.mu.Unlock()
}

// mergeSnapshot adds a plain-data histogram summary into h.
func (h *Histogram) mergeSnapshot(s HistogramSnapshot) {
	if h == nil {
		return
	}
	for i, n := range s.Buckets {
		if i >= 0 && i < histBuckets {
			h.buckets[i].Add(n)
		}
	}
	if s.Count == 0 {
		return
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	for {
		cur := h.min.Load()
		if ^cur <= s.Min || h.min.CompareAndSwap(cur, ^s.Min) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= s.Max || h.max.CompareAndSwap(cur, s.Max) {
			break
		}
	}
}

// Snapshot copies the registry into plain, JSON-serializable data.
// Timeline events are sorted into a canonical order (timestamp, tid,
// name) so snapshots from differently-partitioned parallel runs compare
// equal when nothing was dropped.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Counters: map[string]uint64{}, Histograms: map[string]HistogramSnapshot{}}
	if !r.Enabled() {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		if s.Gauges == nil {
			s.Gauges = map[string]int64{}
		}
		s.Gauges[name] = g.value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	s.Events = r.trace.ordered()
	s.DroppedEvents = r.trace.dropped
	r.mu.Unlock()
	sort.SliceStable(s.Events, func(i, j int) bool {
		a, b := &s.Events[i], &s.Events[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Dur < b.Dur
	})
	return s
}
