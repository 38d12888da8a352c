package fabric

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/resilience"
)

// lockedBuf is a log sink safe for concurrent writers.
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
	if _, err := NewCoordinator(CoordinatorConfig{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{Workers: []string{" ", "/"}}); err == nil {
		t.Fatal("blank fleet accepted")
	}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: []string{"http://a:1/", " http://a:1", "http://b:2"}})
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

// TestDispatchServerErrorBuriesWorker: a 5xx is a dying worker — the
// member is benched with the (non-JSON) body quoted in the log.
func TestDispatchServerErrorBuriesWorker(t *testing.T) {
	urls, client := namedFleet(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	log := &lockedBuf{}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, Client: client, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	u, _ := validWorkUnit(t, 0)
	if _, err := coord.dispatch(context.Background(), u); !resilience.IsWorkerLost(err) {
		t.Fatalf("all-500 fleet error not classified as worker loss: %v", err)
	}
	if s := log.String(); !strings.Contains(s, "benched") || !strings.Contains(s, "boom") {
		t.Fatalf("bench log missing the cause:\n%s", s)
	}
	if live := coord.reg.Snapshot().Gauges["fabric.workers.live"]; live != 0 {
		t.Fatalf("fabric.workers.live = %d after a 5xx, want 0", live)
	}
}

// TestDispatchAllWorkersDown: with the whole fleet unreachable, a
// dispatch must come back as resilience.WorkerLost — the supervisor
// then requeues the frame for free instead of burning its attempts.
func TestDispatchAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing listens here anymore
	coord, err := NewCoordinator(CoordinatorConfig{Workers: []string{dead.URL}})
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
	// The member is now benched; the second dispatch is its re-admission
	// trial, which finds it just as dead.
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
	workers, _, urls, client := startFleet(t, 2)
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, Client: client})
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

// gate fronts one worker of a re-admission fleet: it counts the frame
// requests that reach the worker's address, and once hold is set it
// parks the next one until open is called.
type gate struct {
	hits    atomic.Int64
	hold    atomic.Bool
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{parked: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func (g *gate) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fabric/v1/frames" {
			g.hits.Add(1)
			if g.hold.CompareAndSwap(true, false) {
				g.parked <- struct{}{}
				<-g.release
			}
		}
		h.ServeHTTP(w, r)
	})
}

// readmissionFleet is one row's fleet: workers behind kill switches and
// gates, seated in index order by an ordered policy.
type readmissionFleet struct {
	coord    *Coordinator
	workers  []*Worker
	switches []*killSwitch
	gates    []*gate
	log      *lockedBuf
}

func (f *readmissionFleet) dispatch(t *testing.T) *workResult {
	t.Helper()
	u, _ := validWorkUnit(t, 0)
	res, err := f.coord.dispatch(context.Background(), u)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	return res
}

// want checks how many frame requests reached worker 0 and how many
// members the live gauge counts.
func (f *readmissionFleet) want(t *testing.T, hits, live int64) {
	t.Helper()
	if got := f.gates[0].hits.Load(); got != hits {
		t.Fatalf("worker 0 was sent %d frame requests, want %d", got, hits)
	}
	if got := f.coord.reg.Snapshot().Gauges["fabric.workers.live"]; got != live {
		t.Fatalf("fabric.workers.live = %d, want %d", got, live)
	}
}

// TestBenchReadmission pins the liveness rule the coordinator keeps
// from dispatch outcomes alone, with no clock and no probe: a failed
// dispatch benches a worker, the bench lasts len(members) picks, one
// dispatch at a time holds a benched worker's trial, a digest-valid
// result un-benches it, and quarantine is never undone. Every row
// seats worker 0 first, so each pick that skips it is visible.
func TestBenchReadmission(t *testing.T) {
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
	for _, tc := range []struct {
		name  string
		n     int
		front func(http.Handler) http.Handler // replaces worker 0's handler
		limit int                             // DigestFailureLimit
		run   func(t *testing.T, f *readmissionFleet)
	}{
		{name: "killed worker returns", n: 3, run: func(t *testing.T, f *readmissionFleet) {
			f.switches[0].killed.Store(true)
			f.dispatch(t) // pick 1 benches worker 0; pick 2 fails over
			f.want(t, 1, 2)
			for i := 0; i < 3-2; i++ { // with pick 2, len(members)-1 picks skip it
				f.dispatch(t)
				f.want(t, 1, 2)
			}
			f.dispatch(t) // the next pick is its trial: still dead, benched again
			f.want(t, 2, 2)
			f.dispatch(t)
			f.want(t, 2, 2)
			f.switches[0].killed.Store(false)
			f.dispatch(t) // this trial answers and un-benches it
			f.want(t, 3, 3)
			f.dispatch(t) // no longer skipped
			f.want(t, 4, 3)
			if got := workerServed(f.workers[0]); got != 2 {
				t.Fatalf("re-admitted worker served %d frames, want 2", got)
			}
			if s := f.log.String(); !strings.Contains(s, "benched") || !strings.Contains(s, "re-admitted") {
				t.Fatalf("log missing the bench and re-admission:\n%s", s)
			}
		}},
		{name: "503 benches while a peer serves", n: 2, run: func(t *testing.T, f *readmissionFleet) {
			f.workers[0].Drain()
			for i := 0; i < 4; i++ {
				f.dispatch(t)
				f.want(t, int64(i+1), 1) // with two members every dispatch holds a trial
			}
			if got := workerServed(f.workers[0]); got != 0 {
				t.Fatalf("draining worker served %d frames, want 0", got)
			}
			if got := workerServed(f.workers[1]); got != 4 {
				t.Fatalf("peer served %d frames, want 4", got)
			}
			if s := f.log.String(); !strings.Contains(s, "503") {
				t.Fatalf("bench log missing the 503:\n%s", s)
			}
		}},
		{name: "one trial at a time", n: 2, run: func(t *testing.T, f *readmissionFleet) {
			f.switches[0].killed.Store(true)
			f.dispatch(t)
			f.want(t, 1, 1)
			f.switches[0].killed.Store(false)
			f.gates[0].hold.Store(true)
			trial := make(chan error, 1)
			go func() {
				u, _ := validWorkUnit(t, 0)
				_, err := f.coord.dispatch(context.Background(), u)
				trial <- err
			}()
			select {
			case <-f.gates[0].parked: // the trial is in flight on worker 0
			case err := <-trial:
				t.Fatalf("the dispatch never tried worker 0 (err %v)", err)
			}
			f.dispatch(t) // eligible by count, but the trial is taken
			f.want(t, 2, 1)
			f.gates[0].open()
			if err := <-trial; err != nil {
				t.Fatalf("trial dispatch: %v", err)
			}
			f.want(t, 2, 2)
			if got := workerServed(f.workers[1]); got != 2 {
				t.Fatalf("peer served %d frames, want 2", got)
			}
		}},
		{name: "quarantine is never undone", n: 2, front: corrupt, limit: 1, run: func(t *testing.T, f *readmissionFleet) {
			for i := 0; i < 3*2; i++ {
				f.dispatch(t)
				f.want(t, 1, 1)
			}
			if q := f.coord.quarantinedNames(); len(q) != 1 || q[0] != "http://w0" {
				t.Fatalf("quarantinedNames() = %v, want [http://w0]", q)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &readmissionFleet{log: &lockedBuf{}}
			handlers := make([]http.Handler, tc.n)
			for i := range handlers {
				w, ks, g := NewWorker(WorkerConfig{}), &killSwitch{}, newGate()
				h := w.Handler()
				if i == 0 && tc.front != nil {
					h = tc.front(h)
				}
				handlers[i] = g.wrap(killable(h, ks))
				f.workers = append(f.workers, w)
				f.switches = append(f.switches, ks)
				f.gates = append(f.gates, g)
			}
			urls, client := namedFleet(t, handlers...)
			for _, g := range f.gates {
				t.Cleanup(g.open) // never leave a request parked
			}
			coord, err := NewCoordinator(CoordinatorConfig{
				Workers:            urls,
				Policy:             &orderedPolicy{order: urls},
				Client:             client,
				DigestFailureLimit: tc.limit,
				Log:                f.log,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			f.coord = coord
			tc.run(t, f)
		})
	}
}
