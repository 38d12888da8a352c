package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("pool.inflight")
	if g == nil {
		t.Fatal("enabled registry returned nil gauge")
	}
	g.Set(5)
	g.add(3)
	g.add(-2)
	if got := g.value(); got != 6 {
		t.Fatalf("gauge value = %d, want 6", got)
	}
	if again := r.Gauge("pool.inflight"); again != g {
		t.Fatal("same name resolved to a different gauge")
	}
	g.Set(-7)
	if got := g.value(); got != -7 {
		t.Fatalf("gauge holds %d, want -7 (gauges are signed)", got)
	}
}

func TestGaugeNilSafety(t *testing.T) {
	var r *Registry
	g := r.Gauge("anything")
	if g != nil {
		t.Fatal("nil registry returned non-nil gauge")
	}
	// All no-ops, no panics.
	g.Set(1)
	g.add(2)
	if g.value() != 0 {
		t.Fatal("nil gauge has a value")
	}
}

func TestGaugeSnapshotAndMerge(t *testing.T) {
	a := New()
	a.Gauge("worker.0.inflight").Set(2)
	a.Gauge("workers.live").Set(1)
	b := New()
	b.Gauge("worker.1.inflight").Set(3)
	b.Gauge("workers.live").Set(1)

	// Merge sums gauge levels recorded by disjoint owners.
	a.Merge(b)
	s := a.Snapshot()
	want := map[string]int64{"worker.0.inflight": 2, "worker.1.inflight": 3, "workers.live": 2}
	for name, v := range want {
		if got := s.Gauges[name]; got != v {
			t.Errorf("merged gauge %s = %d, want %d", name, got, v)
		}
	}
	if names := s.gaugeNames(); len(names) != 3 || names[0] != "worker.0.inflight" {
		t.Fatalf("GaugeNames() = %v", names)
	}

	// MergeSnapshot is the plain-data equivalent.
	c := New()
	c.Gauge("workers.live").Set(4)
	c.MergeSnapshot(s)
	if got := c.Gauge("workers.live").value(); got != 6 {
		t.Fatalf("MergeSnapshot gauge = %d, want 6", got)
	}
}

// TestGaugeSnapshotOmittedWhenAbsent pins the compatibility contract:
// a registry with no gauges snapshots to exactly the JSON it produced
// before gauges existed, so checkpoint and determinism goldens are
// unaffected.
func TestGaugeSnapshotOmittedWhenAbsent(t *testing.T) {
	r := New()
	r.Counter("c").Inc()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "gauges") {
		t.Fatalf("gauge-free snapshot mentions gauges:\n%s", buf.String())
	}
}

func TestGaugePrometheus(t *testing.T) {
	r := New()
	r.Gauge("fabric.worker.0.up").Set(1)
	r.Counter("fabric.dispatch.ok").Add(2)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE fabric_worker_0_up gauge\nfabric_worker_0_up 1\n",
		"# TYPE fabric_dispatch_ok counter\nfabric_dispatch_ok 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
