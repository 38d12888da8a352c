package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Op is the root span's id for
// every span of one op (or prep step); -1 marks work outside any op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootLayer is the layer of an op's root span: time only the root
// covers was spent between the benchmark's calls, in no layer.
const rootLayer = "unattributed"

// recorder keeps spans in memory. Every wrapper times its call whether
// or not recording is on; on only decides whether the span is kept, so
// a traced and an untraced run execute the same calls.
type recorder struct {
	on     atomic.Bool // read by the in-process servers' goroutines
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

// id allocates a span id (0 when recording is off).
func (r *recorder) id() int64 {
	if !r.on.Load() {
		return 0
	}
	return r.nextID.Add(1)
}

// record keeps a span measured by the caller; id 0 allocates one.
func (r *recorder) record(id, parent, op int64, name, layer string, start, end time.Time) {
	if !r.on.Load() {
		return
	}
	if id == 0 {
		id = r.id()
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// do times fn as a span of layer under parent; fn receives the span's
// id to parent its own children.
func (r *recorder) do(op, parent int64, name, layer string, fn func(id int64) error) (time.Duration, error) {
	id := r.id()
	start := time.Now()
	err := fn(id)
	end := time.Now()
	r.record(id, parent, op, name, layer, start, end)
	return end.Sub(start), err
}

// root times fn as the root span of a new op; fn receives the op id,
// which every span of the op carries.
func (r *recorder) root(name string, fn func(op int64) error) (time.Duration, error) {
	id := r.id()
	start := time.Now()
	err := fn(id)
	end := time.Now()
	r.record(id, 0, id, name, rootLayer, start, end)
	return end.Sub(start), err
}

// snapshot returns a copy of the kept spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// attribution is where the ops' wall time went: per layer, the time
// during which a span of that layer was the deepest active span of its
// op. This is each span's self time (its duration minus the part its
// children cover), except that overlapping spans of one layer count
// their common time once, so the shares of one op sum to one.
type attribution struct {
	Wall  time.Duration            // summed wall time of the root spans
	Roots int                      // number of root spans (ops and prep steps)
	Layer map[string]time.Duration // self time per layer
}

// share returns layer's self time as a fraction of root wall time.
func (a *attribution) share(layer string) float64 {
	if a.Wall <= 0 {
		return 0
	}
	return a.Layer[layer].Seconds() / a.Wall.Seconds()
}

// attribute computes the attribution of every op in spans. A root span
// is a span whose id equals its op; spans with op -1 are ignored.
func attribute(spans []span) *attribution {
	a := &attribution{Layer: map[string]time.Duration{}}
	byOp := map[int64][]span{}
	for _, s := range spans {
		if s.Op >= 0 {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	for op, ss := range byOp {
		var root *span
		for i := range ss {
			if ss[i].ID == op {
				root = &ss[i]
			}
		}
		if root == nil {
			continue
		}
		a.Roots++
		a.Wall += time.Duration(root.End - root.Start)
		attributeOp(root, ss, a)
	}
	return a
}

// attributeOp sweeps one op's interval: each elementary interval
// between span boundaries goes to the layers of the deepest active
// spans, split evenly when several layers are equally deep.
func attributeOp(root *span, ss []span, a *attribution) {
	parent := map[int64]int64{}
	for _, s := range ss {
		parent[s.ID] = s.Parent
	}
	depth := make([]int, len(ss))
	for i, s := range ss {
		d, id := 0, s.ID
		for id != root.ID && d <= len(ss) {
			p, ok := parent[id]
			if !ok {
				break
			}
			id, d = p, d+1
		}
		depth[i] = d
	}
	cuts := []int64{root.Start, root.End}
	for _, s := range ss {
		cuts = append(cuts, clamp(s.Start, root.Start, root.End), clamp(s.End, root.Start, root.End))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if hi <= lo {
			continue
		}
		deepest := -1
		var active []int
		for i, s := range ss {
			if s.Start > lo || s.End < hi {
				continue
			}
			switch {
			case depth[i] > deepest:
				deepest, active = depth[i], []int{i}
			case depth[i] == deepest:
				active = append(active, i)
			}
		}
		layers := map[string]bool{}
		for _, i := range active {
			if ss[i].ID == root.ID {
				layers[rootLayer] = true
			} else {
				layers[ss[i].Layer] = true
			}
		}
		part := time.Duration(hi-lo) / time.Duration(len(layers))
		for l := range layers {
			a.Layer[l] += part
		}
	}
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// durations returns the durations in seconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start).Seconds())
		}
	}
	return out
}

// writeChromeTrace writes spans in Chrome trace format: one complete
// event per span, one thread per op, the layer as the category.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Op + 1,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
}

// writeLayerTable writes the per-layer self-time table of a traced run.
func writeLayerTable(w io.Writer, a *attribution) {
	layers := make([]string, 0, len(a.Layer))
	for l := range a.Layer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return a.Layer[layers[i]] > a.Layer[layers[j]] })
	fmt.Fprintf(w, "%-14s %12s %8s   (%d roots, %.3f s wall)\n", "layer", "self_s", "share", a.Roots, a.Wall.Seconds())
	for _, l := range layers {
		fmt.Fprintf(w, "%-14s %12.6f %8.4f\n", l, a.Layer[l].Seconds(), a.share(l))
	}
}
