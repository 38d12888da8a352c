package report

import (
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// WriteObsFiles persists an observability snapshot: the metrics as JSON
// to metricsPath and the timeline as Chrome trace-format JSON to
// tracePath (either may be empty to skip it). Each file is written to a
// temporary sibling and renamed into place, so a reader never observes
// a partial file and a failed write leaves nothing behind.
func WriteObsFiles(snap *obs.Snapshot, metricsPath, tracePath string) error {
	if metricsPath != "" {
		if err := writeFileAtomic(metricsPath, snap.WriteJSON); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	if tracePath != "" {
		if err := writeFileAtomic(tracePath, snap.WriteChromeTrace); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

// writeFileAtomic writes via a temp file + rename; on any failure the
// temp file is removed and the destination is left untouched.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ObsCounterTable renders a snapshot's counters as a two-column table,
// sorted by metric name, so per-stage pipeline breakdowns print
// alongside the paper tables.
func ObsCounterTable(s *obs.Snapshot) *Table {
	t := NewTable("observability counters", "metric", "value")
	for _, name := range s.CounterNames() {
		t.AddRow(name, s.Counters[name])
	}
	return t
}
