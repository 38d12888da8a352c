package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// Event is one timeline entry in (a subset of) the Chrome trace event
// format: phase "X", a complete span at TS lasting Dur. Timestamps are in the producer's own timebase — the GPU
// simulator emits simulated cycles, which trace viewers display as
// microseconds.
type Event struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	Cat   string            `json:"cat,omitempty"`
	PID   uint64            `json:"pid"`
	TID   uint64            `json:"tid"`
	TS    uint64            `json:"ts"`
	Dur   uint64            `json:"dur,omitempty"`
	Args  map[string]uint64 `json:"args,omitempty"`
}

// traceRing is a bounded ring of events; when full, new events
// overwrite the oldest. Callers must hold the registry mutex.
type traceRing struct {
	cap     int
	buf     []Event
	head    int // next overwrite position once len(buf) == cap
	dropped uint64
}

func (t *traceRing) push(e Event) {
	if t.cap <= 0 {
		t.dropped++
		return
	}
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.head] = e
	t.head++
	if t.head == t.cap {
		t.head = 0
	}
	t.dropped++
}

// ordered returns the retained events oldest-first.
func (t *traceRing) ordered() []Event {
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.head:]...)
	out = append(out, t.buf[:t.head]...)
	return out
}

// Span records a complete span: name, timeline tid, start timestamp and
// duration, with optional arguments. No-op when disabled.
func (r *Registry) Span(name string, tid, ts, dur uint64, args map[string]uint64) {
	r.emit(Event{Name: name, Phase: "X", PID: 1, TID: tid, TS: ts, Dur: dur, Args: args})
}

func (r *Registry) emit(e Event) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	r.trace.push(e)
	r.mu.Unlock()
}

// chromeTrace is the JSON object trace viewers load.
type chromeTrace struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the snapshot's timeline as a Chrome
// trace-format JSON object loadable in chrome://tracing or Perfetto.
// Timestamps (simulated cycles) map to the viewer's microseconds.
func (s *Snapshot) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	events := s.Events
	if events == nil {
		events = []Event{}
	}
	if err := enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}
