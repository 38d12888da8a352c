package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
)

// chaosClient wraps the default transport in the deterministic chaos
// transport — the coordinator's entire view of its fleet goes through
// the fault injector.
func chaosClient(t *testing.T, cfg chaos.Config) *http.Client {
	t.Helper()
	tr, err := chaos.NewTransport(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// runCanonicalCampaign submits the canonical cluster campaign through a
// campaign service wired to coord and returns the raw result report.
func runCanonicalCampaign(t *testing.T, coord *Coordinator) []byte {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 1, QueueCapacity: 8, CheckpointDir: t.TempDir(), Dispatcher: coord})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	sub := submitOK(t, ts, clusterCampaignBody())
	st := waitTerminal(t, ts, sub.JobID)
	if st.State != serve.JobSucceeded {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	code, raw := getJSON(t, ts, "/api/v1/jobs/"+sub.JobID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, raw)
	}
	return raw
}

// TestChaosSoakByzantineKillRestart is the PR's capstone: a 4-worker
// fleet — one byzantine, all behind the deterministic chaos transport —
// runs the canonical campaign while every honest worker is killed
// mid-campaign and restarted. The byzantine worker tampers with stats
// and recomputes valid digests, so only the audit cross-check can catch
// it. Required outcome: the byzantine worker quarantined, the killed
// frames requeued, and the final report byte-identical to a clean
// single-process run.
//
// Choreography (deterministic by construction, not by timing):
//   - every frame is audited (AuditFraction 1), so the byzantine worker
//     is caught the first time one of its results reaches a digest
//     comparison with an arbiter available;
//   - the first honest frame request to arrive AFTER the quarantine
//     kills all three honest workers at once, including the serving
//     one (hijack-close mid-request) — so the in-flight frame requeues
//     through resilience.WorkerLost, guaranteed;
//   - 300ms later the honest workers revive and the heartbeat loop
//     resurrects them; the campaign finishes on the restarted fleet.
func TestChaosSoakByzantineKillRestart(t *testing.T) {
	byz := NewWorker(WorkerConfig{})
	honest := make([]*Worker, 3)
	switches := make([]*killSwitch, 3)
	urls := make([]string, 4)

	var coordPtr atomic.Pointer[Coordinator]
	var killOnce sync.Once
	revive := make(chan struct{})
	trigger := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/fabric/v1/frames" {
				if c := coordPtr.Load(); c != nil && len(c.quarantinedNames()) > 0 {
					fired := false
					killOnce.Do(func() {
						fired = true
						for _, ks := range switches {
							ks.killed.Store(true)
						}
						close(revive)
					})
					if fired {
						// This very request is the mid-campaign kill: die
						// raw, mid-exchange, like the rest of the fleet.
						if hj, ok := w.(http.Hijacker); ok {
							if conn, _, err := hj.Hijack(); err == nil {
								conn.Close()
								return
							}
						}
						panic(http.ErrAbortHandler)
					}
				}
			}
			h.ServeHTTP(w, r)
		})
	}

	bts := httptest.NewServer(byzantine(byz.Handler()))
	t.Cleanup(bts.Close)
	urls[0] = bts.URL
	for i := range honest {
		honest[i] = NewWorker(WorkerConfig{})
		switches[i] = &killSwitch{}
		ts := httptest.NewServer(killable(trigger(honest[i].Handler()), switches[i]))
		t.Cleanup(ts.Close)
		urls[i+1] = ts.URL
	}
	go func() {
		<-revive
		time.Sleep(300 * time.Millisecond)
		for _, ks := range switches {
			ks.killed.Store(false)
		}
	}()

	coord, err := NewCoordinator(CoordinatorConfig{
		Workers: urls,
		Policy:  &roundRobin{}, // seats the byzantine worker constantly
		Client: chaosClient(t, chaos.Config{
			Seed:            20260809,
			DropRate:        0.08,
			DelayRate:       0.25,
			Delay:           2 * time.Millisecond,
			DuplicateRate:   0.10,
			TruncateRate:    0.05,
			CorruptRate:     0.05,
			StallRate:       0.05,
			StallDelay:      250 * time.Millisecond,
			PartitionRate:   0.05,
			PartitionWindow: 2,
		}),
		HeartbeatInterval:  5 * time.Millisecond, // fast resurrection under chaos
		AuditFraction:      1,
		AuditSeed:          7,
		DigestFailureLimit: 1 << 20, // wire corruption is injected on purpose; only audits quarantine here
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coordPtr.Store(coord)

	raw := runCanonicalCampaign(t, coord)

	// Byte-identity with the clean single-process run (requeue/resume
	// accounting normalized — the kill makes those legitimately nonzero).
	norm, err := normalizeReport(raw, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := clusterGolden(t); !bytes.Equal(norm, want) {
		t.Fatalf("chaos-soaked cluster result differs from single-process run:\n--- soak ---\n%s\n--- direct ---\n%s", norm, want)
	}

	// The byzantine worker — and only it — was quarantined, via the
	// audit path.
	if q := coord.quarantinedNames(); len(q) != 1 || q[0] != urls[0] {
		t.Fatalf("Quarantined() = %v, want exactly the byzantine worker %s", q, urls[0])
	}
	snap := coord.reg.Snapshot()
	if got := snap.Gauges["fabric.workers.quarantined"]; got != 1 {
		t.Fatalf("fabric.workers.quarantined = %d, want 1", got)
	}
	if got := snap.Counters["fabric.audit.sampled"]; got == 0 {
		t.Fatal("no audits sampled at AuditFraction 1")
	}
	if got := snap.Counters["fabric.audit.mismatch"]; got == 0 {
		t.Fatal("byzantine worker quarantined without a recorded audit mismatch")
	}

	// The kill fired and its frames came back through the requeue path.
	select {
	case <-revive:
	default:
		t.Fatal("mid-campaign kill never fired (byzantine quarantine was never observed by the fleet)")
	}
	var rep serve.CampaignReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Resilience == nil || rep.Resilience.Requeued < 1 {
		t.Fatalf("kill/restart produced no requeues: %+v", rep.Resilience)
	}
	if got := workerServed(byz); got == 0 {
		t.Fatal("byzantine worker never served a frame; the audit was never actually tested")
	}
}

// TestChaosFaultClassesPreserveReport is the per-class property: each
// chaos fault class, injected alone against an honest fleet, either
// triggers the coordinator's recovery machinery (failover, requeue,
// digest rejection) or passes harmlessly — and in every case the
// final report is byte-identical to the clean single-process run and no
// honest worker is quarantined.
func TestChaosFaultClassesPreserveReport(t *testing.T) {
	cases := []struct {
		name string
		cfg  chaos.Config
		// disruptive classes must leave a trace in the recovery
		// counters; benign ones (added latency, a stall well inside the
		// client timeout, duplicate delivery) must not need any recovery
		// at all.
		disruptive bool
	}{
		// Drop stays moderate: at 0.5 the dropped heartbeat probes keep
		// workers marked down long enough that frames can exhaust their
		// requeue budget and degrade to a substitute — a legitimate
		// outcome, but not the byte-identity this test asserts.
		{"drop", chaos.Config{Seed: 101, DropRate: 0.35}, true},
		{"delay", chaos.Config{Seed: 102, DelayRate: 0.6, Delay: 2 * time.Millisecond}, false},
		{"duplicate", chaos.Config{Seed: 103, DuplicateRate: 0.6}, false},
		{"truncate", chaos.Config{Seed: 104, TruncateRate: 0.4}, true},
		{"corrupt", chaos.Config{Seed: 105, CorruptRate: 0.4}, true},
		{"stall", chaos.Config{Seed: 106, StallRate: 0.5, StallDelay: 300 * time.Millisecond}, false},
		{"partition", chaos.Config{Seed: 107, PartitionRate: 0.4, PartitionWindow: 2}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, urls := startFleet(t, 3)
			coord, err := NewCoordinator(CoordinatorConfig{
				Workers:            urls,
				Policy:             &roundRobin{},
				Client:             chaosClient(t, tc.cfg),
				HeartbeatInterval:  5 * time.Millisecond,
				AuditFraction:      1, // double the dispatch plan: more fault draws, audit under fire
				DigestFailureLimit: 1 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			raw := runCanonicalCampaign(t, coord)
			norm, err := normalizeReport(raw, true)
			if err != nil {
				t.Fatal(err)
			}
			if want := clusterGolden(t); !bytes.Equal(norm, want) {
				t.Fatalf("report under %s chaos differs from single-process run:\n--- chaos ---\n%s\n--- direct ---\n%s", tc.name, norm, want)
			}
			if q := coord.quarantinedNames(); len(q) != 0 {
				t.Fatalf("%s chaos quarantined honest workers: %v", tc.name, q)
			}
			snap := coord.reg.Snapshot()
			recovered := snap.Counters["fabric.dispatch.failover"] +
				snap.Counters["fabric.dispatch.lost"] +
				snap.Counters["fabric.digest.failed"]
			if tc.disruptive && recovered == 0 {
				t.Fatalf("%s chaos left no trace in the recovery counters; the class never fired", tc.name)
			}
			if !tc.disruptive && recovered != 0 {
				t.Fatalf("%s chaos should be absorbed without recovery, saw %d recovery events", tc.name, recovered)
			}
			if tc.name == "corrupt" && snap.Counters["fabric.digest.failed"] == 0 {
				t.Fatal("corrupt chaos never failed digest verification")
			}
		})
	}
}

// TestClusterGoldenWithAuditAndHedging: the PR-6 byte-identity contract
// survives the trust layer — a clean fleet with every frame audited
// produces the exact golden bytes, with zero mismatches
// and zero quarantines. Auditing is an overlay on the result, never a
// perturbation of it.
func TestClusterGoldenWithAuditAndHedging(t *testing.T) {
	_, _, urls := startFleet(t, 3)
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:           urls,
		HeartbeatInterval: -1,
		AuditFraction:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	raw := runCanonicalCampaign(t, coord)
	norm, err := normalizeReport(raw, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := clusterGolden(t); !bytes.Equal(norm, want) {
		t.Fatalf("audited cluster result differs from single-process run:\n--- cluster ---\n%s\n--- direct ---\n%s", norm, want)
	}
	snap := coord.reg.Snapshot()
	if got := snap.Counters["fabric.audit.sampled"]; got == 0 {
		t.Fatal("no audits sampled at AuditFraction 1")
	}
	if got := snap.Counters["fabric.audit.mismatch"]; got != 0 {
		t.Fatalf("clean fleet produced %d audit mismatches", got)
	}
	if q := coord.quarantinedNames(); len(q) != 0 {
		t.Fatalf("clean fleet quarantined workers: %v", q)
	}
}
