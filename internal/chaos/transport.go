package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// maxKeyBody bounds how much of a request body the transport inspects
// when deriving the chaos key. Fabric work units are capped well below
// this by the protocol's own limit.
const maxKeyBody = 1 << 20

// event is one request's fault draw as it actually happened — the
// replayable chaos log. Two runs of the same plan under the same seed
// produce the same Events (in per-key order; cross-key interleaving
// follows scheduling, which is why keys carry the identity).
type event struct {
	Key     string
	Attempt int
	Faults  []faultClass
}

// Transport is a deterministic fault-injecting http.RoundTripper. It
// wraps a real transport and, per request, draws every fault class from
// the seed-keyed roll stream: faults that prevent delivery (drop,
// partition) surface as transport errors, latency faults (delay, stall)
// sleep before sending, and body faults (truncate, corrupt) rewrite the
// response after a successful exchange. Safe for concurrent use.
type Transport struct {
	cfg  Config
	next http.RoundTripper

	mu       sync.Mutex
	attempts map[string]int // per-key occurrence count (1-based attempts)
	hostSeq  map[string]int // per-host request sequence, drives partition windows
	events   []event
}

// NewTransport wraps next (nil = http.DefaultTransport) with
// deterministic fault injection under cfg.
func NewTransport(cfg Config, next http.RoundTripper) (*Transport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if next == nil {
		next = http.DefaultTransport
	}
	return &Transport{
		cfg:      cfg,
		next:     next,
		attempts: make(map[string]int),
		hostSeq:  make(map[string]int),
	}, nil
}

// eventLog returns a copy of the fault log so far: every request that
// drew at least one fault, in arrival order.
func (t *Transport) eventLog() []event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]event, len(t.events))
	copy(out, t.events)
	return out
}

// key derives a request's chaos identity. Frame dispatches — POSTs
// whose JSON body carries the fabric work-unit's fingerprint and frame
// — key on host|fingerprint#frame, so a frame keeps its fault fate
// across coordinator retries to the same worker while failover to
// another host draws a fresh stream. Anything else (heartbeat probes,
// health checks) keys on host|method path.
func key(req *http.Request, body []byte) string {
	host := req.URL.Host
	if req.Method == http.MethodPost && len(body) > 0 {
		var unit struct {
			Fingerprint string `json:"fingerprint"`
			Frame       *int   `json:"frame"`
		}
		if err := json.Unmarshal(body, &unit); err == nil && unit.Fingerprint != "" && unit.Frame != nil {
			return fmt.Sprintf("%s|%s#%d", host, unit.Fingerprint, *unit.Frame)
		}
	}
	return host + "|" + req.Method + " " + req.URL.Path
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil && req.Body != http.NoBody {
		b, err := io.ReadAll(io.LimitReader(req.Body, maxKeyBody))
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		body = b
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	key := key(req, body)
	host := req.URL.Host

	t.mu.Lock()
	t.attempts[key]++
	attempt := t.attempts[key]
	seq := t.hostSeq[host]
	t.hostSeq[host]++
	d := t.cfg.decide(key, host, attempt, seq)
	if faults := d.Faults(); len(faults) > 0 {
		t.events = append(t.events, event{Key: key, Attempt: attempt, Faults: faults})
	}
	t.mu.Unlock()

	if d.Partitioned {
		return nil, fmt.Errorf("chaos: partition: %s unreachable (key %s attempt %d)", host, key, attempt)
	}
	if d.Drop {
		return nil, fmt.Errorf("chaos: drop (key %s attempt %d)", key, attempt)
	}
	if d.Stall {
		if err := sleep(req, t.cfg.StallDelay); err != nil {
			return nil, err
		}
	}
	if d.Delay {
		if err := sleep(req, t.cfg.Delay); err != nil {
			return nil, err
		}
	}

	if d.Duplicate {
		// Deliver twice; the caller consumes the second response — a
		// retransmit racing its original. The first response is drained
		// and discarded so the connection can be reused.
		first, err := t.next.RoundTrip(cloneWithBody(req, body))
		if err == nil {
			io.Copy(io.Discard, first.Body)
			first.Body.Close()
		}
	}

	resp, err := t.next.RoundTrip(cloneWithBody(req, body))
	if err != nil {
		return nil, err
	}
	if !d.Truncate && !d.Corrupt {
		return resp, nil
	}

	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if d.Truncate && len(raw) > 1 {
		// Cut strictly inside the body at a deterministic point so the
		// result is a genuinely partial delivery, never a clean empty
		// or complete read.
		cut := 1 + int(roll(t.cfg.Seed, key, attempt, classTruncate)*float64(len(raw)-1))
		raw = raw[:cut]
	}
	if d.Corrupt && len(raw) > 0 {
		bit := int(roll(t.cfg.Seed, key, attempt+int(numClasses), classCorrupt) * float64(len(raw)*8))
		if bit >= len(raw)*8 {
			bit = len(raw)*8 - 1
		}
		raw = bytes.Clone(raw)
		raw[bit/8] ^= 1 << (bit % 8)
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	resp.ContentLength = int64(len(raw))
	resp.Header.Set("Content-Length", fmt.Sprint(len(raw)))
	return resp, nil
}

// cloneWithBody re-arms the request body for (re)delivery.
func cloneWithBody(req *http.Request, body []byte) *http.Request {
	out := req.Clone(req.Context())
	if body != nil {
		out.Body = io.NopCloser(bytes.NewReader(body))
	}
	return out
}

// sleep waits for d or until the request's context ends, whichever is
// first — a stalled request must still honor cancellation, or a
// draining service would wait out every stalled frame.
func sleep(req *http.Request, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-req.Context().Done():
		return req.Context().Err()
	}
}
