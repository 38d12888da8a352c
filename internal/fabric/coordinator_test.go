package fabric

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
)

// lockedBuf is a log sink safe for the heartbeat goroutine.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestCoordinatorFleetNormalization: worker URLs are trimmed, stripped
// of trailing slashes and deduplicated; a fleet with no usable URL is
// refused.
func TestCoordinatorFleetNormalization(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorConfig{HeartbeatInterval: -1}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{Workers: []string{" ", "/"}, HeartbeatInterval: -1}); err == nil {
		t.Fatal("blank fleet accepted")
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:           []string{"http://a:1/", " http://a:1", "http://b:2"},
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	got := coord.Workers()
	want := []string{"http://a:1", "http://b:2"}
	if len(got) != len(want) {
		t.Fatalf("Workers() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Workers()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestHeartbeatBuriesAndResurrects: the heartbeat loop is Probe on a
// timer — a worker whose transport dies is buried within a few beats
// and resurrected once it answers again, with both transitions logged.
func TestHeartbeatBuriesAndResurrects(t *testing.T) {
	_, switches, urls := startFleet(t, 1)
	log := &lockedBuf{}
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:           urls,
		HeartbeatInterval: 2 * time.Millisecond,
		Log:               log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	waitLive := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for coord.reg.Snapshot().Gauges["fabric.workers.live"] != want {
			if time.Now().After(deadline) {
				t.Fatalf("fabric.workers.live never reached %d", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	switches[0].killed.Store(true)
	waitLive(0)
	switches[0].killed.Store(false)
	waitLive(1)
	if s := log.String(); !strings.Contains(s, "failed heartbeat") || !strings.Contains(s, "recovered") {
		t.Fatalf("heartbeat log missing the down/up transitions:\n%s", s)
	}
}

// TestDispatchServerErrorBuriesWorker: a 5xx is a dying worker — the
// member is buried with the (non-JSON) body quoted in the log, and a
// probe against its equally broken healthz keeps it buried.
func TestDispatchServerErrorBuriesWorker(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	log := &lockedBuf{}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: []string{bad.URL}, HeartbeatInterval: -1, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	u, _ := validWorkUnit(t, 0)
	if _, err := coord.dispatch(context.Background(), u); !resilience.IsWorkerLost(err) {
		t.Fatalf("all-500 fleet error not classified as worker loss: %v", err)
	}
	if s := log.String(); !strings.Contains(s, "marked down") || !strings.Contains(s, "boom") {
		t.Fatalf("markDown log missing the cause:\n%s", s)
	}
	coord.probe(context.Background())
	if live := coord.reg.Snapshot().Gauges["fabric.workers.live"]; live != 0 {
		t.Fatalf("fabric.workers.live = %d after probing a broken healthz, want 0", live)
	}
}

// TestDispatchAllWorkersDown: with the whole fleet unreachable, a
// dispatch must come back as resilience.WorkerLost — the supervisor
// then requeues the frame for free instead of burning its attempts.
func TestDispatchAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing listens here anymore
	coord, err := NewCoordinator(CoordinatorConfig{Workers: []string{dead.URL}, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	u, _ := validWorkUnit(t, 0)
	_, err = coord.dispatch(context.Background(), u)
	if err == nil {
		t.Fatal("dispatch to a dead fleet succeeded")
	}
	if !resilience.IsWorkerLost(err) {
		t.Fatalf("dead fleet error not classified as worker loss: %v", err)
	}
	// The member is now buried; a second dispatch reports loss without
	// touching the network.
	if _, err := coord.dispatch(context.Background(), u); !resilience.IsWorkerLost(err) {
		t.Fatalf("second dispatch: %v", err)
	}
	if got := coord.reg.Snapshot().Counters["fabric.dispatch.lost"]; got < 2 {
		t.Fatalf("fabric.dispatch.lost = %d, want >= 2", got)
	}
}

// TestDispatchDeterministicRefusalDoesNotFailover: a 4xx is the frame's
// fault, not the worker's — the dispatch fails the frame outright and
// the worker stays up (no failover storm re-failing the same bad unit
// across the fleet).
func TestDispatchDeterministicRefusalDoesNotFailover(t *testing.T) {
	workers, _, urls := startFleet(t, 2)
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	u, _ := validWorkUnit(t, 0)
	u.Fingerprint = "megsim-deadbeefdeadbeefdeadbeef" // worker answers 409
	_, err = coord.dispatch(context.Background(), u)
	if err == nil {
		t.Fatal("skewed unit dispatched successfully")
	}
	if resilience.IsWorkerLost(err) {
		t.Fatalf("deterministic refusal misclassified as worker loss: %v", err)
	}
	snap := coord.reg.Snapshot()
	if got := snap.Counters["fabric.dispatch.failover"]; got != 0 {
		t.Fatalf("fabric.dispatch.failover = %d, want 0 for a 4xx", got)
	}
	if got := snap.Counters["fabric.dispatch.refused"]; got != 1 {
		t.Fatalf("fabric.dispatch.refused = %d, want 1", got)
	}
	total := workerServed(workers[0]) + workerServed(workers[1])
	if total != 0 {
		t.Fatalf("a refused unit was counted as served (%d)", total)
	}
}

// TestProbeRecoversDownedWorker: a dispatch failure buries a worker; a
// health probe resurrects it and dispatch flows again — the heartbeat
// loop is exactly a Probe on a timer.
func TestProbeRecoversDownedWorker(t *testing.T) {
	workers, switches, urls := startFleet(t, 1)
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	u, _ := validWorkUnit(t, 0)
	switches[0].killed.Store(true) // transport down
	if _, err := coord.dispatch(context.Background(), u); !resilience.IsWorkerLost(err) {
		t.Fatalf("dispatch to killed worker: %v", err)
	}
	if live := coord.reg.Snapshot().Gauges["fabric.workers.live"]; live != 0 {
		t.Fatalf("fabric.workers.live = %d after burial, want 0", live)
	}

	switches[0].killed.Store(false) // the worker process came back
	coord.probe(context.Background())
	if live := coord.reg.Snapshot().Gauges["fabric.workers.live"]; live != 1 {
		t.Fatalf("fabric.workers.live = %d after recovery probe, want 1", live)
	}
	res, err := coord.dispatch(context.Background(), u)
	if err != nil {
		t.Fatalf("dispatch after recovery: %v", err)
	}
	if res.Frame != u.Frame {
		t.Fatalf("result frame %d, want %d", res.Frame, u.Frame)
	}
	if got := workerServed(workers[0]); got != 1 {
		t.Fatalf("recovered worker served %d frames, want 1", got)
	}
}

// TestProbeSeesDraining: a drained worker is skipped by routing after
// the next probe, while a live peer keeps serving.
func TestProbeSeesDraining(t *testing.T) {
	workers, _, urls := startFleet(t, 2)
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	workers[0].Drain()
	coord.probe(context.Background())

	u, _ := validWorkUnit(t, 0)
	for i := 0; i < 4; i++ {
		if _, err := coord.dispatch(context.Background(), u); err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
	}
	if got := workerServed(workers[0]); got != 0 {
		t.Fatalf("draining worker served %d frames, want 0", got)
	}
	if got := workerServed(workers[1]); got != 4 {
		t.Fatalf("live worker served %d frames, want 4", got)
	}
}
