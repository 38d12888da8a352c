package obs

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): every counter as a `counter` metric, every
// gauge as a `gauge`, and every histogram as a `histogram` with
// cumulative `_bucket` series plus
// `_sum` and `_count`. Metric names are sanitized to the Prometheus
// charset (dots and other separators become underscores), and series
// are emitted in sorted name order so the output is deterministic.
//
// The histogram buckets are the registry's power-of-two buckets: bucket
// i holds samples whose bit length is i, i.e. values in [2^(i-1), 2^i),
// so the inclusive Prometheus upper bound of bucket i is 2^i - 1.
// Buckets are emitted up to the highest non-empty one, followed by the
// mandatory `+Inf` bucket.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range s.CounterNames() {
		pn := prometheusName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range s.gaugeNames() {
		pn := prometheusName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range s.HistogramNames() {
		if err := writePrometheusHistogram(w, prometheusName(name), s.Histograms[name]); err != nil {
			return err
		}
	}
	return nil
}

func writePrometheusHistogram(w io.Writer, pn string, h HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
		return err
	}
	top := -1
	for i := range h.Buckets {
		if i > top {
			top = i
		}
	}
	cum := uint64(0)
	for i := 0; i <= top; i++ {
		cum += h.Buckets[i]
		// Inclusive upper bound of bucket i: values of bit length i are
		// at most 2^i - 1 (bucket 0 holds only zero).
		le := uint64(0)
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		pn, h.Count, pn, h.Sum, pn, h.Count)
	return err
}

// prometheusName sanitizes a registry metric name into the Prometheus
// metric-name charset [a-zA-Z_:][a-zA-Z0-9_:]*. The registry's
// dot-separated namespaces become underscore-separated; any other
// illegal rune also maps to an underscore, and a leading digit gets an
// underscore prefix.
func prometheusName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}
