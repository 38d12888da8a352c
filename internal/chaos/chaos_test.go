package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func mustTransport(t *testing.T, cfg Config) *Transport {
	t.Helper()
	tr, err := NewTransport(cfg, nil)
	if err != nil {
		t.Fatalf("NewTransport: %v", err)
	}
	return tr
}

// echoServer returns body "payload" for every request and counts hits.
func echoServer(t *testing.T, payload string) (*httptest.Server, *int) {
	t.Helper()
	hits := new(int)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		*hits++
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, payload)
	}))
	t.Cleanup(srv.Close)
	return srv, hits
}

// event is one request's fault draw as it actually happened — the
// replayable chaos log. Two runs of the same plan under the same seed
// produce the same events.
type event struct {
	Key     string
	Attempt int
	Faults  []faultClass
}

// faults lists d's drawn fault classes in class order.
func faults(d decision) []faultClass {
	var out []faultClass
	for class, on := range []bool{d.Drop, d.Delay, d.Duplicate, d.Truncate, d.Corrupt, d.Stall, d.Partitioned} {
		if on {
			out = append(out, faultClass(class))
		}
	}
	return out
}

// recorder logs the fault draws of the Transport it forwards to: every
// request that drew at least one fault, in arrival order. The transport
// keeps no log, so the recorder derives each request's chaos key and
// draws from a ledger of its own, as the transport does; for the
// sequential request plans of these tests that is the transport's draw.
type recorder struct {
	tr     *Transport
	ledger ledger
	events []event
}

func record(tr *Transport) *recorder { return &recorder{tr: tr, ledger: newLedger()} }

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	req, body, err := readBody(req)
	if err != nil {
		return nil, err
	}
	d := r.ledger.draw(&r.tr.cfg, key(req, body), req.URL.Host)
	if f := faults(d); len(f) > 0 {
		r.events = append(r.events, event{Key: d.Key, Attempt: d.Attempt, Faults: f})
	}
	return r.tr.RoundTrip(req)
}

func get(t *testing.T, tr http.RoundTripper, url string) (string, error) {
	t.Helper()
	client := &http.Client{Transport: tr}
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func TestValidate(t *testing.T) {
	good := Config{Seed: 1, DropRate: 0.5, PartitionWindow: 3}
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, cfg := range map[string]Config{
		"negative rate":    {DropRate: -0.1},
		"rate above one":   {CorruptRate: 1.5},
		"negative window":  {PartitionWindow: -1},
		"stall rate range": {StallRate: 2},
	} {
		if err := cfg.validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := NewTransport(Config{DropRate: 7}, nil); err == nil {
		t.Fatal("NewTransport accepted invalid config")
	}
}

// TestStagingProfileValid: the staging fault mix passes validation and
// keeps the seed it was built with.
func TestStagingProfileValid(t *testing.T) {
	sp := StagingProfile(42)
	if err := sp.validate(); err != nil {
		t.Fatalf("StagingProfile invalid: %v", err)
	}
	if sp.Seed != 42 {
		t.Fatalf("StagingProfile seed = %d", sp.Seed)
	}
}

func TestRollDeterministicAndDistinct(t *testing.T) {
	r1 := roll(7, "w1|fp#3", 1, classDrop)
	if r2 := roll(7, "w1|fp#3", 1, classDrop); r1 != r2 {
		t.Fatalf("Roll not deterministic: %v vs %v", r1, r2)
	}
	if r1 < 0 || r1 >= 1 {
		t.Fatalf("Roll out of [0,1): %v", r1)
	}
	// Different coordinates draw independent values.
	if roll(7, "w1|fp#3", 1, classDrop) == roll(7, "w1|fp#3", 2, classDrop) {
		t.Fatal("attempt did not change the roll")
	}
	if roll(7, "w1|fp#3", 1, classDrop) == roll(7, "w1|fp#3", 1, classDelay) {
		t.Fatal("class did not change the roll")
	}
	if roll(7, "w1|fp#3", 1, classDrop) == roll(8, "w1|fp#3", 1, classDrop) {
		t.Fatal("seed did not change the roll")
	}
	if roll(7, "w1|fp#3", 1, classDrop) == roll(7, "w2|fp#3", 1, classDrop) {
		t.Fatal("key did not change the roll")
	}
}

func TestClassString(t *testing.T) {
	want := map[faultClass]string{
		classDrop:      "drop",
		classDelay:     "delay",
		classDuplicate: "duplicate",
		classTruncate:  "truncate",
		classCorrupt:   "corrupt",
		classStall:     "stall",
		classPartition: "partition",
		faultClass(99): "class(99)",
	}
	for c, name := range want {
		if got := c.String(); got != name {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), got, name)
		}
	}
	d := decision{Drop: true, Stall: true}
	if got := faults(d); !reflect.DeepEqual(got, []faultClass{classDrop, classStall}) {
		t.Fatalf("Faults = %v", got)
	}
}

func TestKeyDerivation(t *testing.T) {
	body := []byte(`{"fingerprint":"abc123","frame":7,"workload":{}}`)
	req := httptest.NewRequest(http.MethodPost, "http://w1:8351/frame", bytes.NewReader(body))
	if got, want := key(req, body), "w1:8351|abc123#7"; got != want {
		t.Fatalf("frame key = %q, want %q", got, want)
	}
	// Frame 0 is a real frame, not a missing field.
	body0 := []byte(`{"fingerprint":"abc123","frame":0}`)
	req0 := httptest.NewRequest(http.MethodPost, "http://w1:8351/frame", bytes.NewReader(body0))
	if got, want := key(req0, body0), "w1:8351|abc123#0"; got != want {
		t.Fatalf("frame-0 key = %q, want %q", got, want)
	}
	// Non-frame requests key on method+path.
	hb := httptest.NewRequest(http.MethodGet, "http://w1:8351/healthz", nil)
	if got, want := key(hb, nil), "w1:8351|GET /healthz"; got != want {
		t.Fatalf("probe key = %q, want %q", got, want)
	}
	// A POST with a non-unit body falls back to method+path.
	junk := []byte(`{"other":true}`)
	jr := httptest.NewRequest(http.MethodPost, "http://w1:8351/frame", bytes.NewReader(junk))
	if got, want := key(jr, junk), "w1:8351|POST /frame"; got != want {
		t.Fatalf("junk-body key = %q, want %q", got, want)
	}
}

// TestDeterministicEventLog is the determinism contract: two transports
// with the same seed, replaying the same request plan, log the same
// fault sequence event for event.
func TestDeterministicEventLog(t *testing.T) {
	srv, _ := echoServer(t, strings.Repeat("x", 256))
	cfg := StagingProfile(1234)
	// Crank rates so a short plan draws plenty of faults.
	cfg.DropRate, cfg.TruncateRate, cfg.CorruptRate, cfg.DuplicateRate = 0.3, 0.3, 0.3, 0.3
	cfg.DelayRate, cfg.Delay = 0.3, time.Microsecond
	cfg.StallRate, cfg.StallDelay = 0.3, time.Microsecond
	cfg.PartitionRate, cfg.PartitionWindow = 0.2, 2

	plan := func(tr http.RoundTripper) {
		client := &http.Client{Transport: tr}
		for frame := 0; frame < 8; frame++ {
			body := fmt.Sprintf(`{"fingerprint":"fp-golden","frame":%d}`, frame)
			// Two attempts per frame: retries advance the attempt axis.
			for try := 0; try < 2; try++ {
				resp, err := client.Post(srv.URL+"/frame", "application/json", strings.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			client.Get(srv.URL + "/healthz")
		}
	}

	run := func() []event {
		rec := record(mustTransport(t, cfg))
		plan(rec)
		return rec.events
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("plan drew no faults; test has no teeth")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("fault logs diverge:\n run1: %+v\n run2: %+v", first, second)
	}
	// A different seed draws a different sequence (overwhelmingly).
	cfg.Seed++
	rec := record(mustTransport(t, cfg))
	plan(rec)
	if reflect.DeepEqual(first, rec.events) {
		t.Fatal("different seed produced identical fault log")
	}
}

func TestDropReturnsTransportError(t *testing.T) {
	srv, hits := echoServer(t, "ok")
	tr := mustTransport(t, Config{Seed: 1, DropRate: 1})
	if _, err := get(t, tr, srv.URL); err == nil || !strings.Contains(err.Error(), "drop") {
		t.Fatalf("expected drop error, got %v", err)
	}
	if *hits != 0 {
		t.Fatalf("dropped request reached the server (%d hits)", *hits)
	}
}

func TestPartitionCoversWindow(t *testing.T) {
	srv, hits := echoServer(t, "ok")
	tr := record(mustTransport(t, Config{Seed: 1, PartitionRate: 1, PartitionWindow: 3}))
	for i := 0; i < 3; i++ {
		if _, err := get(t, tr, srv.URL); err == nil || !strings.Contains(err.Error(), "partition") {
			t.Fatalf("request %d: expected partition error, got %v", i, err)
		}
	}
	if *hits != 0 {
		t.Fatalf("partitioned requests reached the server (%d hits)", *hits)
	}
	ev := tr.events
	if len(ev) != 3 {
		t.Fatalf("expected 3 partition events, got %d", len(ev))
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	srv, hits := echoServer(t, "ok")
	tr := mustTransport(t, Config{Seed: 1, DuplicateRate: 1})
	body, err := get(t, tr, srv.URL)
	if err != nil {
		t.Fatalf("duplicate request failed: %v", err)
	}
	if body != "ok" {
		t.Fatalf("body = %q", body)
	}
	if *hits != 2 {
		t.Fatalf("duplicate delivered %d times, want 2", *hits)
	}
}

func TestTruncateCutsBody(t *testing.T) {
	const payload = "0123456789abcdef"
	srv, _ := echoServer(t, payload)
	tr := mustTransport(t, Config{Seed: 1, TruncateRate: 1})
	body, err := get(t, tr, srv.URL)
	if err != nil {
		t.Fatalf("truncated request failed: %v", err)
	}
	if len(body) == 0 || len(body) >= len(payload) {
		t.Fatalf("truncation produced %d bytes of %d; want strictly partial", len(body), len(payload))
	}
	if !strings.HasPrefix(payload, body) {
		t.Fatalf("truncated body %q is not a prefix of %q", body, payload)
	}
	// Deterministic cut point.
	tr2 := mustTransport(t, Config{Seed: 1, TruncateRate: 1})
	body2, _ := get(t, tr2, srv.URL)
	if body != body2 {
		t.Fatalf("truncation cut differs across runs: %q vs %q", body, body2)
	}
}

func TestCorruptFlipsOneBit(t *testing.T) {
	const payload = "0123456789abcdef"
	srv, _ := echoServer(t, payload)
	tr := mustTransport(t, Config{Seed: 1, CorruptRate: 1})
	body, err := get(t, tr, srv.URL)
	if err != nil {
		t.Fatalf("corrupted request failed: %v", err)
	}
	if len(body) != len(payload) {
		t.Fatalf("corruption changed length: %d vs %d", len(body), len(payload))
	}
	diff := 0
	for i := range body {
		for bit := 0; bit < 8; bit++ {
			if (body[i]^payload[i])>>bit&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
	}
}

func TestDelayAndStallSleep(t *testing.T) {
	srv, _ := echoServer(t, "ok")
	const hold = 30 * time.Millisecond
	tr := mustTransport(t, Config{Seed: 1, StallRate: 1, StallDelay: hold, DelayRate: 1, Delay: hold})
	start := time.Now()
	if _, err := get(t, tr, srv.URL); err != nil {
		t.Fatalf("stalled request failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 2*hold {
		t.Fatalf("stall+delay held %v, want >= %v", elapsed, 2*hold)
	}
}

func TestStallHonorsContextCancel(t *testing.T) {
	srv, hits := echoServer(t, "ok")
	tr := mustTransport(t, Config{Seed: 1, StallRate: 1, StallDelay: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	_, err := (&http.Client{Transport: tr}).Do(req)
	if err == nil {
		t.Fatal("expected context error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel did not interrupt the stall (took %v)", elapsed)
	}
	if *hits != 0 {
		t.Fatalf("cancelled stall still reached the server (%d hits)", *hits)
	}
}

func TestZeroConfigPassesThrough(t *testing.T) {
	srv, hits := echoServer(t, "clean")
	tr := record(mustTransport(t, Config{}))
	for i := 0; i < 5; i++ {
		body, err := get(t, tr, srv.URL)
		if err != nil || body != "clean" {
			t.Fatalf("request %d: body %q err %v", i, body, err)
		}
	}
	if *hits != 5 {
		t.Fatalf("server saw %d hits, want 5", *hits)
	}
	if ev := tr.events; len(ev) != 0 {
		t.Fatalf("zero config logged events: %+v", ev)
	}
}

// TestAttemptAxisAdvances: retrying the same frame draws a fresh roll
// rather than repeating its fate forever — a frame dropped once is not
// dropped eternally.
func TestAttemptAxisAdvances(t *testing.T) {
	srv, _ := echoServer(t, "ok")
	// Pick a seed where fp#0 attempt 1 drops but some later attempt
	// under rate 0.5 does not.
	cfg := Config{DropRate: 0.5}
	key := ""
	for seed := uint64(0); ; seed++ {
		cfg.Seed = seed
		// derive the runtime key the transport will use
		u := srv.URL[len("http://"):]
		key = u + "|fp#0"
		if roll(seed, key, 1, classDrop) < 0.5 && roll(seed, key, 2, classDrop) >= 0.5 {
			break
		}
	}
	tr := record(mustTransport(t, cfg))
	client := &http.Client{Transport: tr}
	post := func() error {
		resp, err := client.Post(srv.URL+"/frame", "application/json",
			strings.NewReader(`{"fingerprint":"fp","frame":0}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return err
	}
	if err := post(); err == nil {
		t.Fatal("attempt 1 should have dropped")
	}
	if err := post(); err != nil {
		t.Fatalf("attempt 2 should have succeeded: %v", err)
	}
	ev := tr.events
	if len(ev) != 1 || ev[0].Attempt != 1 || ev[0].Key != key {
		t.Fatalf("unexpected event log: %+v", ev)
	}
}
