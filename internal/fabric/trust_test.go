package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/resilience"
)

// orderedPolicy picks the earliest eligible candidate in a fixed name
// order — deterministic primary/audit/arbiter seating for trust tests.
type orderedPolicy struct{ order []string }

func (p *orderedPolicy) Pick(_ string, names []string) int {
	for _, want := range p.order {
		if i := slices.Index(names, want); i >= 0 {
			return i
		}
	}
	return -1
}

// roundRobin cycles through the eligible workers, ignoring the key, so
// a campaign's frames spread across the whole fleet.
type roundRobin struct{ next atomic.Uint64 }

func (p *roundRobin) Pick(_ string, names []string) int {
	return int((p.next.Add(1) - 1) % uint64(len(names)))
}

// byzantine wraps a real worker's handler and tampers with every frame
// result: the stats are perturbed and the digest recomputed over the
// tampered content, so digest verification passes and only the audit
// cross-check can catch it — the strongest adversary the trust model
// claims to handle.
func byzantine(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fabric/v1/frames" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		var res workResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		res.Stats.Cycles += 1 << 20 // a plausibly-wrong number, not garbage
		res.Digest = res.ComputeDigest()
		writeJSON(w, http.StatusOK, &res)
	})
}

// trustFleet starts n real workers plus handler-level middleware per
// index as a named fleet, returning URLs in seat order.
func trustFleet(t *testing.T, n int, wrap map[int]func(http.Handler) http.Handler) ([]*Worker, []string, *http.Client) {
	t.Helper()
	workers := make([]*Worker, n)
	handlers := make([]http.Handler, n)
	for i := range handlers {
		workers[i] = NewWorker(WorkerConfig{})
		handlers[i] = workers[i].Handler()
		if w, ok := wrap[i]; ok {
			handlers[i] = w(handlers[i])
		}
	}
	urls, client := namedFleet(t, handlers...)
	return workers, urls, client
}

// TestDigestFailureFailsOverThenQuarantines: a worker that emits
// results failing digest verification costs a failover each time (it is
// NOT benched — the wire, not the worker, may be at fault) until the
// failure budget is spent, at which point it is quarantined for good:
// gauge up, Quarantined() lists it, and no later dispatch reaches it.
func TestDigestFailureFailsOverThenQuarantines(t *testing.T) {
	// Seat 0 answers every frame with a fabricated result whose digest
	// doesn't verify; seat 1 is honest.
	corrupt := func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			u, err := decodeWorkUnit(r.Body)
			if err != nil {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			writeJSON(w, http.StatusOK, &workResult{Frame: u.Frame, Digest: "crc32:deadbeef"})
		})
	}
	workers, urls, client := trustFleet(t, 2, map[int]func(http.Handler) http.Handler{0: corrupt})
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:            urls,
		Policy:             &orderedPolicy{order: urls},
		Client:             client,
		DigestFailureLimit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for frame := 0; frame < 3; frame++ {
		u, _ := validWorkUnit(t, frame)
		res, err := coord.dispatch(context.Background(), u)
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		if res.Digest != res.ComputeDigest() {
			t.Fatalf("frame %d: accepted result fails digest verification", frame)
		}
		snap := coord.reg.Snapshot()
		if got := snap.Counters["fabric.digest.failed"]; got != uint64(frame+1) {
			t.Fatalf("frame %d: fabric.digest.failed = %d, want %d", frame, got, frame+1)
		}
		// Until the limit, the corrupt worker stays eligible (not
		// benched): a corrupt delivery is a failover, not a dead worker.
		wantQuar := frame == 2
		if gotQuar := len(coord.quarantinedNames()) == 1; gotQuar != wantQuar {
			t.Fatalf("frame %d: quarantined=%v, want %v", frame, gotQuar, wantQuar)
		}
	}
	snap := coord.reg.Snapshot()
	if got := snap.Gauges["fabric.workers.quarantined"]; got != 1 {
		t.Fatalf("fabric.workers.quarantined = %d, want 1", got)
	}
	if q := coord.quarantinedNames(); len(q) != 1 || q[0] != urls[0] {
		t.Fatalf("Quarantined() = %v, want [%s]", q, urls[0])
	}
	if got := workerServed(workers[1]); got != 3 {
		t.Fatalf("honest worker served %d frames, want 3", got)
	}

	// Quarantine is terminal: the worker's server is reachable and
	// healthy, but no dispatch goes to it.
	u, _ := validWorkUnit(t, 9)
	if _, err := coord.dispatch(context.Background(), u); err != nil {
		t.Fatalf("dispatch after quarantine: %v", err)
	}
	if got := workerServed(workers[0]); got != 0 {
		t.Fatalf("quarantined worker served %d frames after quarantine", got)
	}
}

// TestAuditCatchesByzantineWorker: the byzantine worker tampers with
// stats and recomputes a valid digest — invisible to digest
// verification. With every frame audited, the cross-check catches the
// divergence, the third worker arbitrates, the byzantine minority is
// quarantined, and the accepted result is the honest majority's.
func TestAuditCatchesByzantineWorker(t *testing.T) {
	_, urls, client := trustFleet(t, 3, map[int]func(http.Handler) http.Handler{0: byzantine})
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:       urls,
		Policy:        &orderedPolicy{order: urls}, // byzantine seats primary
		Client:        client,
		AuditFraction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	u, _ := validWorkUnit(t, 0)
	res, err := coord.dispatch(context.Background(), u)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}

	// The honest pair agrees on the truth; dispatch a second frame to a
	// now-byzantine-free fleet and compare an honest frame-0 answer.
	hurls, hclient := namedFleet(t, NewWorker(WorkerConfig{}).Handler())
	hc, err := NewCoordinator(CoordinatorConfig{Workers: hurls, Client: hclient})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	want, err := hc.dispatch(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != want.Digest {
		t.Fatalf("audit accepted the byzantine result: digest %s, honest %s", res.Digest, want.Digest)
	}
	if res.Stats != want.Stats {
		t.Fatalf("accepted stats differ from honest stats:\n%+v\n%+v", res.Stats, want.Stats)
	}

	snap := coord.reg.Snapshot()
	if got := snap.Counters["fabric.audit.sampled"]; got != 1 {
		t.Fatalf("fabric.audit.sampled = %d, want 1", got)
	}
	if got := snap.Counters["fabric.audit.mismatch"]; got != 1 {
		t.Fatalf("fabric.audit.mismatch = %d, want 1", got)
	}
	if q := coord.quarantinedNames(); len(q) != 1 || q[0] != urls[0] {
		t.Fatalf("Quarantined() = %v, want the byzantine worker %s", q, urls[0])
	}
}

// TestAuditMismatchWithoutArbiterRequeues: with only two workers and a
// digest dispute between them there is no majority — the frame must
// requeue (WorkerLost), never merge, and neither worker can be blamed.
func TestAuditMismatchWithoutArbiterRequeues(t *testing.T) {
	_, urls, client := trustFleet(t, 2, map[int]func(http.Handler) http.Handler{0: byzantine})
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:       urls,
		Policy:        &orderedPolicy{order: urls},
		Client:        client,
		AuditFraction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	u, _ := validWorkUnit(t, 0)
	_, err = coord.dispatch(context.Background(), u)
	if err == nil {
		t.Fatal("disputed frame was merged")
	}
	if !resilience.IsWorkerLost(err) {
		t.Fatalf("disputed frame failed with %v, want WorkerLost (requeue)", err)
	}
	if q := coord.quarantinedNames(); len(q) != 0 {
		t.Fatalf("quarantined %v on a 1-vs-1 dispute with no majority", q)
	}
}

// TestOversizedResultFailsOver is the maxResultBytes regression: a
// worker answering a body exactly one byte over the limit is a worker
// failure — failover to the next candidate — not a malformed-JSON
// puzzle truncated at the cap.
func TestOversizedResultFailsOver(t *testing.T) {
	over := bytes.Repeat([]byte("x"), maxResultBytes+1)
	oversized := func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(over)
		})
	}
	var log strings.Builder
	workers, urls, client := trustFleet(t, 2, map[int]func(http.Handler) http.Handler{0: oversized})
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers: urls,
		Policy:  &orderedPolicy{order: urls},
		Client:  client,
		Log:     &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	u, _ := validWorkUnit(t, 0)
	res, err := coord.dispatch(context.Background(), u)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Digest != res.ComputeDigest() {
		t.Fatal("failover result fails digest verification")
	}
	if got := workerServed(workers[1]); got != 1 {
		t.Fatalf("failover target served %d frames, want 1", got)
	}
	snap := coord.reg.Snapshot()
	if got := snap.Counters["fabric.dispatch.failover"]; got != 1 {
		t.Fatalf("fabric.dispatch.failover = %d, want 1", got)
	}
	// The failure is named for what it is — an oversized answer, not a
	// JSON decode error at the cut.
	if !strings.Contains(log.String(), "result bytes") {
		t.Fatalf("over-limit body not diagnosed as oversized:\n%s", log.String())
	}
	if strings.Contains(log.String(), "malformed result") {
		t.Fatalf("over-limit body misdiagnosed as malformed JSON:\n%s", log.String())
	}
}

// TestAuditSampleDeterministicFraction: the audit sampler is a pure
// roll — replayable, fingerprint+frame keyed, and roughly proportional
// to the configured fraction.
func TestAuditSampleDeterministicFraction(t *testing.T) {
	c := &Coordinator{cfg: CoordinatorConfig{AuditFraction: 0.25, AuditSeed: 99}}
	u := func(frame int) *WorkUnit { return &WorkUnit{Fingerprint: "megsim-test", Frame: frame} }
	sampled := 0
	for f := 0; f < 2000; f++ {
		a := c.auditSample(u(f))
		if b := c.auditSample(u(f)); a != b {
			t.Fatalf("frame %d: audit sample not deterministic", f)
		}
		if a {
			sampled++
		}
	}
	if sampled < 400 || sampled > 600 {
		t.Fatalf("sampled %d of 2000 at fraction 0.25; want ~500", sampled)
	}
	off := &Coordinator{cfg: CoordinatorConfig{AuditFraction: 0}}
	always := &Coordinator{cfg: CoordinatorConfig{AuditFraction: 1}}
	if off.auditSample(u(1)) {
		t.Fatal("fraction 0 sampled a frame")
	}
	if !always.auditSample(u(1)) {
		t.Fatal("fraction 1 skipped a frame")
	}
}
