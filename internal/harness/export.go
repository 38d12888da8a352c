package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/tbr"
)

// WriteFrameStatsCSV writes per-frame simulator statistics as CSV — the
// raw series behind the ground-truth runs, for external analysis or
// plotting.
func WriteFrameStatsCSV(w io.Writer, frames []tbr.FrameStats) error {
	if _, err := fmt.Fprintln(w, "frame,cycles,geometry_cycles,raster_cycles,"+
		"vertices,prims_in,prims_visible,fragments,fs_instrs,vs_instrs,"+
		"dram_accesses,l2_accesses,tile_cache_accesses,texture_accesses,ipc"); err != nil {
		return err
	}
	for i := range frames {
		st := &frames[i]
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f\n",
			st.Frame, st.Cycles, st.GeometryCycles, st.RasterCycles,
			st.VerticesShaded, st.PrimsIn, st.PrimsVisible, st.FragmentsShaded,
			st.FSInstrs, st.VSInstrs,
			st.DRAM.Accesses, st.L2.Accesses, st.TileCache.Accesses, st.TexAccesses,
			st.IPC()); err != nil {
			return err
		}
	}
	return nil
}

// SelectionSummary is the JSON-serializable record of a MEGsim frame
// selection: everything needed to re-simulate the representatives later
// (or on another machine) without redoing characterization/clustering.
type SelectionSummary struct {
	Workload        string    `json:"workload"`
	Frames          int       `json:"frames"`
	Clusters        int       `json:"clusters"`
	Representatives []int     `json:"representatives"`
	ClusterSizes    []int     `json:"cluster_sizes"`
	Assignment      []int     `json:"assignment,omitempty"`
	ReductionFactor float64   `json:"reduction_factor"`
	BICScores       []float64 `json:"bic_scores,omitempty"`
}

// NewSelectionSummary builds the serializable record. includeAssignment
// controls whether the (large) per-frame cluster assignment is kept.
func NewSelectionSummary(workload string, sel *core.Selection, includeAssignment bool) SelectionSummary {
	s := SelectionSummary{
		Workload:        workload,
		Frames:          sel.NumFrames(),
		Clusters:        sel.Clusters.K,
		Representatives: append([]int(nil), sel.Representatives...),
		ClusterSizes:    append([]int(nil), sel.Clusters.Sizes...),
		ReductionFactor: sel.ReductionFactor(),
		BICScores:       append([]float64(nil), sel.BICScores...),
	}
	if includeAssignment {
		s.Assignment = append([]int(nil), sel.Clusters.Assign...)
	}
	return s
}

// WriteJSON writes the summary with indentation.
func (s SelectionSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
