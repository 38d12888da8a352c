package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/megsim"
)

// ResilienceSummary is the machine-readable supervision outcome of a
// campaign: degradation, quarantine, resume/retry accounting and
// watchdog flags. It is the service-side twin of what `megsim`'s CLI
// has always reported, shared here so local and remote runs render the
// identical block.
type ResilienceSummary struct {
	Degraded      bool                      `json:"degraded"`
	Coverage      float64                   `json:"coverage"`
	Quarantined   []megsim.QuarantineRecord `json:"quarantined,omitempty"`
	Substitutions []megsim.Substitution     `json:"substitutions,omitempty"`
	LostClusters  []int                     `json:"lost_clusters,omitempty"`
	Resumed       []int                     `json:"resumed_frames,omitempty"`
	Retried       int                       `json:"retried_frames,omitempty"`
	Requeued      int                       `json:"requeued_frames,omitempty"`
	Stalled       []int                     `json:"stalled_workers,omitempty"`
	ResumeError   string                    `json:"resume_error,omitempty"`
}

// NewResilienceSummary extracts the supervision summary of a batch or
// streaming run from its supervision record and degradation (nil when
// the run carries no supervision record). Streaming strata report as
// clusters.
func NewResilienceSummary(sup *megsim.ResilienceResult, deg *megsim.Degradation) *ResilienceSummary {
	if sup == nil {
		return nil
	}
	sum := &ResilienceSummary{
		Degraded:    deg.Degraded(),
		Coverage:    1.0,
		Quarantined: sup.Quarantined,
		Resumed:     sup.Resumed,
		Retried:     sup.Retried,
		Requeued:    sup.Requeued,
		Stalled:     sup.StalledWorkers,
	}
	if deg != nil {
		sum.Coverage = deg.Coverage()
		sum.Substitutions = deg.Substitutions
		sum.LostClusters = deg.Lost
	}
	if sup.ResumeErr != nil {
		sum.ResumeError = sup.ResumeErr.Error()
	}
	return sum
}

// StreamingSummary describes the online first phase of a streaming
// campaign: how many strata the stream settled into, how often the
// stratifier was forced to coarsen, and what a mid-stream resume
// skipped.
type StreamingSummary struct {
	Strata        int    `json:"strata"`
	Merges        int    `json:"merges"`
	ResumedFrames int    `json:"resumed_frames,omitempty"`
	ResumeError   string `json:"resume_error,omitempty"`
}

// CampaignReport is the final result of a campaign — exactly the
// summary the megsim CLI prints, as plain data. The service stores the
// rendered JSON once per job, so every client polling the same job
// receives byte-identical bytes; the CLI's -server mode re-renders the
// same text report locally from this struct.
type CampaignReport struct {
	Workload        string  `json:"workload"`
	Frames          int     `json:"frames"`
	Clusters        int     `json:"clusters"`
	ExploredK       int     `json:"explored_k"`
	Representatives []int   `json:"representatives"`
	Reduction       float64 `json:"reduction_factor"`
	// SampledMillis is wall-clock and therefore the only field that
	// differs between two executions of the same campaign; byte-identity
	// guarantees are over the report with this field normalized (a
	// cache-hit response reports the original execution's timing).
	SampledMillis int64              `json:"sampled_run_ms"`
	Cycles        uint64             `json:"estimated_cycles"`
	DRAMAccesses  uint64             `json:"estimated_dram_accesses"`
	L2Accesses    uint64             `json:"estimated_l2_accesses"`
	TileAccesses  uint64             `json:"estimated_tile_cache_accesses"`
	Resilience    *ResilienceSummary `json:"resilience,omitempty"`
	// Streaming is present for streaming campaigns: Clusters then
	// counts strata and ExploredK is 0 (no k-search runs online).
	Streaming *StreamingSummary `json:"streaming,omitempty"`
}

// NewCampaignReport summarizes a resilient run.
func NewCampaignReport(rrun *megsim.ResilientRun, sampled time.Duration) *CampaignReport {
	run := rrun.Run
	return &CampaignReport{
		Workload:        run.Trace.Name,
		Frames:          run.Trace.NumFrames(),
		Clusters:        run.Selection.Clusters.K,
		ExploredK:       len(run.Selection.BICScores),
		Representatives: run.Representatives(),
		Reduction:       run.ReductionFactor(),
		SampledMillis:   sampled.Milliseconds(),
		Cycles:          run.Estimate.Cycles,
		DRAMAccesses:    run.Estimate.DRAM.Accesses,
		L2Accesses:      run.Estimate.L2.Accesses,
		TileAccesses:    run.Estimate.TileCache.Accesses,
		Resilience:      NewResilienceSummary(rrun.Supervision, rrun.Degradation),
	}
}

// NewStreamingCampaignReport summarizes a streaming sampling run.
func NewStreamingCampaignReport(srun *megsim.StreamingRun, sampled time.Duration) *CampaignReport {
	sel := srun.Selection
	sum := &StreamingSummary{
		Strata:        sel.NumStrata(),
		Merges:        sel.Merges,
		ResumedFrames: srun.ResumedFrames,
	}
	if srun.StreamResumeErr != nil {
		sum.ResumeError = srun.StreamResumeErr.Error()
	}
	return &CampaignReport{
		Workload:        sel.Workload,
		Frames:          sel.Frames,
		Clusters:        sel.NumStrata(),
		Representatives: sel.Representatives(),
		Reduction:       sel.ReductionFactor(),
		SampledMillis:   sampled.Milliseconds(),
		Cycles:          srun.Estimate.Cycles,
		DRAMAccesses:    srun.Estimate.DRAM.Accesses,
		L2Accesses:      srun.Estimate.L2.Accesses,
		TileAccesses:    srun.Estimate.TileCache.Accesses,
		Resilience:      NewResilienceSummary(srun.Supervision, srun.Degradation),
		Streaming:       sum,
	}
}

// WriteJSON writes the report as indented JSON (the service's result
// payload and the CLI's -json output).
func (r *CampaignReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the human-readable run summary — the exact block
// the megsim CLI prints, whether the run executed in-process or on a
// megsimd daemon.
func (r *CampaignReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "workload:        %s (%d frames)\n", r.Workload, r.Frames)
	if s := r.Streaming; s != nil {
		fmt.Fprintf(w, "strata:          %d (streaming, %d merges)\n", s.Strata, s.Merges)
		if s.ResumeError != "" {
			fmt.Fprintf(w, "WARNING: stream resume failed, re-ingested from frame 0: %v\n", s.ResumeError)
		}
		if s.ResumedFrames > 0 {
			fmt.Fprintf(w, "stream resume:   skipped re-characterizing %d frames\n", s.ResumedFrames)
		}
	} else {
		fmt.Fprintf(w, "clusters:        %d (explored k=1..%d)\n", r.Clusters, r.ExploredK)
	}
	fmt.Fprintf(w, "representatives: %v\n", r.Representatives)
	fmt.Fprintf(w, "reduction:       %.0fx fewer frames\n", r.Reduction)
	fmt.Fprintf(w, "sampled run:     %v total\n", time.Duration(r.SampledMillis)*time.Millisecond)
	r.writeSupervision(w)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "estimated cycles:      %d\n", r.Cycles)
	fmt.Fprintf(w, "estimated dram:        %d\n", r.DRAMAccesses)
	fmt.Fprintf(w, "estimated l2:          %d\n", r.L2Accesses)
	fmt.Fprintf(w, "estimated tile cache:  %d\n", r.TileAccesses)
}

// writeSupervision reports everything the supervisor did that an
// operator must know about: resume accounting, retries, watchdog flags,
// and — loudest — degradation. A healthy, fresh run prints nothing.
func (r *CampaignReport) writeSupervision(w io.Writer) {
	sum := r.Resilience
	if sum == nil {
		return
	}
	if sum.ResumeError != "" {
		fmt.Fprintf(w, "WARNING: resume failed, started fresh: %v\n", sum.ResumeError)
	}
	if len(sum.Resumed) > 0 {
		fmt.Fprintf(w, "resumed:         %d frames from checkpoint %v\n", len(sum.Resumed), sum.Resumed)
	}
	if sum.Retried > 0 {
		fmt.Fprintf(w, "retried:         %d frames needed more than one attempt\n", sum.Retried)
	}
	if sum.Requeued > 0 {
		fmt.Fprintf(w, "requeued:        %d dispatches re-entered the pool after worker loss\n", sum.Requeued)
	}
	if len(sum.Stalled) > 0 {
		fmt.Fprintf(w, "WARNING: watchdog flagged stalled workers %v\n", sum.Stalled)
	}
	if !sum.Degraded {
		return
	}
	fmt.Fprintf(w, "DEGRADED: %d frames quarantined, coverage %.1f%% of %d frames\n",
		len(sum.Quarantined), sum.Coverage*100, r.Frames)
	for _, q := range sum.Quarantined {
		fmt.Fprintf(w, "  %s\n", q.String())
	}
	for _, s := range sum.Substitutions {
		fmt.Fprintf(w, "  substitute: cluster %d representative %d -> %d\n", s.Group, s.Original, s.Substitute)
	}
	for _, c := range sum.LostClusters {
		fmt.Fprintf(w, "  lost: cluster %d entirely quarantined, weights rescaled\n", c)
	}
}
