package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestWritePrometheusCounters: counters expose as sanitized `counter`
// series in sorted, deterministic order.
func TestWritePrometheusCounters(t *testing.T) {
	r := New()
	r.Counter("tbr.raster.cycles").Add(42)
	r.Counter("serve.jobs.completed").Add(7)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	want := "# TYPE serve_jobs_completed counter\nserve_jobs_completed 7\n" +
		"# TYPE tbr_raster_cycles counter\ntbr_raster_cycles 42\n"
	if out != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

// TestWritePrometheusHistogram: power-of-two buckets expose as
// cumulative `_bucket` series with inclusive 2^i-1 upper bounds plus
// `_sum`/`_count` and the mandatory +Inf bucket.
func TestWritePrometheusHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("frame.cycles")
	h.Observe(0) // bucket 0, le="0"
	h.Observe(1) // bucket 1, le="1"
	h.Observe(1)
	h.Observe(5) // bucket 3, le="7"
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	want := strings.Join([]string{
		"# TYPE frame_cycles histogram",
		`frame_cycles_bucket{le="0"} 1`,
		`frame_cycles_bucket{le="1"} 3`,
		`frame_cycles_bucket{le="3"} 3`,
		`frame_cycles_bucket{le="7"} 4`,
		`frame_cycles_bucket{le="+Inf"} 4`,
		"frame_cycles_sum 7",
		"frame_cycles_count 4",
		"",
	}, "\n")
	if out != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

// TestWritePrometheusEmptyHistogram: a histogram with no samples still
// exposes a well-formed series (just +Inf, sum and count at zero).
func TestWritePrometheusEmptyHistogram(t *testing.T) {
	var buf bytes.Buffer
	s := &Snapshot{Histograms: map[string]HistogramSnapshot{"empty": {}}}
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := "# TYPE empty histogram\n" +
		`empty_bucket{le="+Inf"} 0` + "\nempty_sum 0\nempty_count 0\n"
	if buf.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestPrometheusName: the sanitizer maps the registry namespace onto
// the Prometheus charset without collapsing information it can keep.
func TestPrometheusName(t *testing.T) {
	cases := map[string]string{
		"tbr.raster.cycles": "tbr_raster_cycles",
		"already_legal:ns":  "already_legal:ns",
		"2fast":             "_2fast",
		"spaß":              "spa_",
		"":                  "_",
	}
	for in, want := range cases {
		if got := prometheusName(in); got != want {
			t.Errorf("PrometheusName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusWriterError: a failing writer surfaces its error
// instead of being swallowed.
func TestWritePrometheusWriterError(t *testing.T) {
	r := New()
	r.Counter("a").Inc()
	if err := r.Snapshot().WritePrometheus(failWriter{}); err == nil {
		t.Fatal("want error from failing writer")
	}
	s := &Snapshot{Histograms: map[string]HistogramSnapshot{"h": {Count: 1, Sum: 1, Buckets: map[int]uint64{1: 1}}}}
	if err := s.WritePrometheus(failWriter{}); err == nil {
		t.Fatal("want error from failing writer (histogram)")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write refused" }
