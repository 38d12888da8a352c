package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// HistogramSnapshot is the plain-data copy of a Histogram. Buckets maps
// bucket index (the bit length of the sample, so bucket i covers
// [2^(i-1), 2^i)) to its count; empty buckets are omitted.
type HistogramSnapshot struct {
	Count   uint64         `json:"count"`
	Sum     uint64         `json:"sum"`
	Min     uint64         `json:"min"`
	Max     uint64         `json:"max"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// Mean returns the average sample (0 with no samples).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a plain-data copy of a Registry: counter values,
// histogram summaries and the retained timeline. It marshals to stable
// JSON (map keys sort) and is what flows into reports and files.
type Snapshot struct {
	Counters      map[string]uint64            `json:"counters"`
	Gauges        map[string]int64             `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Events        []Event                      `json:"events,omitempty"`
	DroppedEvents uint64                       `json:"dropped_events,omitempty"`
}

// CounterNames returns the counter names in sorted order.
func (s *Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// gaugeNames returns the gauge names in sorted order.
func (s *Snapshot) gaugeNames() []string {
	names := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the histogram names in sorted order.
func (s *Snapshot) HistogramNames() []string {
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
