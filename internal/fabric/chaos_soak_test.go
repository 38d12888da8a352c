package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
)

// chaosClient wraps a named fleet's client in the deterministic chaos
// transport — the coordinator's entire view of its fleet goes through
// the fault injector.
func chaosClient(t *testing.T, fleet *http.Client, cfg chaos.Config) *http.Client {
	t.Helper()
	tr, err := chaos.NewTransport(cfg, fleet.Transport)
	if err != nil {
		t.Fatal(err)
	}
	return &http.Client{Transport: tr, Timeout: fleet.Timeout}
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
//   - 300ms later the honest workers revive, and the requeued frames'
//     dispatches re-admit them; the campaign finishes on the restarted
//     fleet.
func TestChaosSoakByzantineKillRestart(t *testing.T) {
	byz := NewWorker(WorkerConfig{})
	honest := make([]*Worker, 3)
	switches := make([]*killSwitch, 3)
	handlers := []http.Handler{byzantine(byz.Handler())}

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

	for i := range honest {
		honest[i] = NewWorker(WorkerConfig{})
		switches[i] = &killSwitch{}
		handlers = append(handlers, killable(trigger(honest[i].Handler()), switches[i]))
	}
	urls, client := namedFleet(t, handlers...)
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
		Client: chaosClient(t, client, chaos.Config{
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
		AuditFraction:      1,
		AuditSeed:          7,
		DigestFailureLimit: 1 << 20, // wire corruption is injected on purpose; only audits quarantine here
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coordPtr.Store(coord)

	raw := runServed(t, []byte(clusterCampaignBody()), coord).report

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

// TestChaosFaultClassesPreserveReport is the per-class property for
// the disruptive fault classes: each, injected alone against an honest
// fleet, triggers the coordinator's recovery machinery (failover,
// requeue, digest rejection), and the final report is still
// byte-identical to the clean single-process run with no honest worker
// quarantined. The benign classes (delay, duplicate, stall) are modes
// of the determinism property (FuzzCampaignModes).
func TestChaosFaultClassesPreserveReport(t *testing.T) {
	cases := []struct {
		name string
		cfg  chaos.Config
	}{
		// Drop stays moderate: at 0.85 frames exhaust their requeue
		// budget and degrade to a substitute — a legitimate outcome, but
		// not the byte-identity this test asserts.
		{"drop", chaos.Config{Seed: 101, DropRate: 0.35}},
		{"truncate", chaos.Config{Seed: 104, TruncateRate: 0.4}},
		{"corrupt", chaos.Config{Seed: 105, CorruptRate: 0.4}},
		{"partition", chaos.Config{Seed: 107, PartitionRate: 0.4, PartitionWindow: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, urls, client := startFleet(t, 3)
			coord, err := NewCoordinator(CoordinatorConfig{
				Workers:            urls,
				Policy:             &roundRobin{},
				Client:             chaosClient(t, client, tc.cfg),
				AuditFraction:      1, // double the dispatch plan: more fault draws, audit under fire
				DigestFailureLimit: 1 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			raw := runServed(t, []byte(clusterCampaignBody()), coord).report
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
			if recovered == 0 {
				t.Fatalf("%s chaos left no trace in the recovery counters; the class never fired", tc.name)
			}
			if tc.name == "corrupt" && snap.Counters["fabric.digest.failed"] == 0 {
				t.Fatal("corrupt chaos never failed digest verification")
			}
		})
	}
}
