package stream

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/tbr"
)

// Stratum is one finalized stratum of a streaming selection.
type Stratum struct {
	// Label is the stratum's stable ingest-time identity.
	Label int `json:"label"`
	// Count is the number of member frames — the extrapolation weight.
	Count int `json:"count"`
	// Representative is the reservoir member closest to the final
	// centroid: the frame simulated for this stratum.
	Representative int `json:"representative"`
	// Alternates are the remaining reservoir members ordered by
	// centroid distance (ties toward the lower frame): the substitution
	// ladder when the representative is quarantined.
	Alternates []int `json:"alternates,omitempty"`
}

// Selection is the streaming second-phase plan: which frames to
// simulate and with what extrapolation weights. It is the streaming
// counterpart of core.Selection, deliberately without the N × D
// feature matrix — a selection over an unbounded stream carries only
// O(strata · reservoir) state.
type Selection struct {
	// Workload names the characterized stream.
	Workload string `json:"workload"`
	// Frames is the total number of frames ingested.
	Frames int `json:"frames"`
	// Strata are the finalized strata, in ingest label order.
	Strata []Stratum `json:"strata"`
	// Merges counts the forced stratum merges during ingest.
	Merges int `json:"merges"`
	// SpawnRadius is the final squared spawn radius.
	SpawnRadius float64 `json:"spawnRadius"`
}

// Finalize freezes the current strata into a selection: each stratum's
// representative is its reservoir member closest to the final centroid
// (the streaming analogue of the batch closest-to-centroid rule), with
// the remaining members ranked as substitution alternates. The
// ingestor remains usable — more frames may be ingested and a later
// Finalize reflects them.
func (in *Ingestor) Finalize() (*Selection, error) {
	if in.n == 0 {
		return nil, fmt.Errorf("stream: no frames ingested")
	}
	k := in.scales()
	sel := &Selection{
		Workload:    in.name,
		Frames:      in.n,
		Merges:      in.merges,
		SpawnRadius: in.spawnR,
	}
	for _, st := range in.strata {
		type cand struct {
			frame int
			d     float64
		}
		cands := make([]cand, len(st.res))
		for i, e := range st.res {
			cands[i] = cand{e.frame, in.dist2ToCentroid(e.vec, st, k)}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].frame < cands[j].frame
		})
		s := Stratum{Label: st.label, Count: st.count, Representative: cands[0].frame}
		for _, c := range cands[1:] {
			s.Alternates = append(s.Alternates, c.frame)
		}
		sel.Strata = append(sel.Strata, s)
	}
	sort.Slice(sel.Strata, func(i, j int) bool { return sel.Strata[i].Label < sel.Strata[j].Label })
	return sel, nil
}

// Representatives returns the frames to simulate, ascending.
func (s *Selection) Representatives() []int {
	out := make([]int, 0, len(s.Strata))
	for _, st := range s.Strata {
		out = append(out, st.Representative)
	}
	sort.Ints(out)
	return out
}

// NumStrata returns the stratum count.
func (s *Selection) NumStrata() int { return len(s.Strata) }

// ReductionFactor returns frames / representatives — the Table III
// headline metric, streaming edition.
func (s *Selection) ReductionFactor() float64 {
	if len(s.Strata) == 0 {
		return 0
	}
	return float64(s.Frames) / float64(len(s.Strata))
}

// Estimate extrapolates full-stream statistics from simulated
// representatives, exactly as the batch Estimate does: each stratum's
// stats scale by its member count and sum (Section III-E).
func (s *Selection) Estimate(repStats map[int]tbr.FrameStats) (tbr.FrameStats, error) {
	return s.Degrade(nil).Estimate(repStats)
}

// Degrade plans the strata around a quarantine set and records the
// degradation: each stratum keeps its representative when healthy,
// else the first non-quarantined alternate stands in, else the stratum
// is lost. The ladder is the centroid-distance ranking, the streaming
// analogue of the batch next-closest-in-cluster substitution, and the
// record's Estimate rescales lost strata exactly as lost clusters.
func (s *Selection) Degrade(quarantined map[int]bool) *core.Degradation {
	reps := make([]int, len(s.Strata))
	sizes := make([]int, len(s.Strata))
	plan := make([]int, len(s.Strata))
	for i, st := range s.Strata {
		reps[i], sizes[i], plan[i] = st.Representative, st.Count, -1
		if !quarantined[st.Representative] {
			plan[i] = st.Representative
			continue
		}
		for _, alt := range st.Alternates {
			if !quarantined[alt] {
				plan[i] = alt
				break
			}
		}
	}
	return core.Degrade(reps, plan, sizes, nil)
}
