package core

import (
	"math"

	"repro/internal/tbr"
	"repro/internal/xmath/linalg"
)

// Substitution records one group (a batch cluster or a streaming
// stratum) whose representative was quarantined, and the frame that
// stands in for it.
type Substitution struct {
	// Group is the cluster or stratum index.
	Group int `json:"cluster"`
	// Original is the quarantined representative frame.
	Original int `json:"original"`
	// Substitute is the frame standing in.
	Substitute int `json:"substitute"`
	// OriginalDist and SubstituteDist are the squared feature-space
	// distances to the cluster centroid: how much representativeness
	// the substitution gave up. A streaming selection keeps no feature
	// matrix, so its substitutions record 0.
	OriginalDist   float64 `json:"original_dist"`
	SubstituteDist float64 `json:"substitute_dist"`
}

// Degradation records how a campaign's plan deviates from its healthy
// representatives, and extrapolates from that plan. Substituted
// representatives keep their group's full weight; lost groups rescale
// the estimate (see Extrapolate). Degradation is always reported,
// never silent.
type Degradation struct {
	// Plan[g] is the frame simulated for group g (-1 = lost).
	Plan []int
	// Substitutions lists the groups that run on a stand-in, ascending.
	Substitutions []Substitution
	// Lost lists the groups with no usable member, ascending.
	Lost []int
	// CoveredFrames is the member count of the groups still planned.
	CoveredFrames int
	// Frames is the member count of every group.
	Frames int

	sizes []int
}

// Degrade builds the degradation record of plan against the healthy
// representatives reps of groups with the given sizes. dist, when
// non-nil, gives a frame's squared distance to its group's centroid for
// the substitution record.
func Degrade(reps, plan, sizes []int, dist func(group, frame int) float64) *Degradation {
	d := &Degradation{Plan: plan, sizes: sizes}
	for g, f := range plan {
		d.Frames += sizes[g]
		switch {
		case f < 0:
			d.Lost = append(d.Lost, g)
			continue
		case f != reps[g]:
			s := Substitution{Group: g, Original: reps[g], Substitute: f}
			if dist != nil {
				s.OriginalDist, s.SubstituteDist = dist(g, reps[g]), dist(g, f)
			}
			d.Substitutions = append(d.Substitutions, s)
		}
		d.CoveredFrames += sizes[g]
	}
	return d
}

// Degraded reports whether any substitution or loss occurred.
func (d *Degradation) Degraded() bool {
	return d != nil && (len(d.Substitutions) > 0 || len(d.Lost) > 0)
}

// Coverage returns the fraction of frames whose group is still planned
// (substitutions do not reduce coverage).
func (d *Degradation) Coverage() float64 {
	if d.Frames == 0 {
		return 0
	}
	return float64(d.CoveredFrames) / float64(d.Frames)
}

// Estimate extrapolates full-sequence statistics from the plan's
// simulated frames.
func (d *Degradation) Estimate(repStats map[int]tbr.FrameStats) (tbr.FrameStats, error) {
	return Extrapolate(d.Plan, d.sizes, repStats)
}

// Degrade plans the selection around a quarantine set and records the
// degradation: each cluster keeps its representative when healthy,
// else the non-quarantined member closest to the centroid stands in
// (the lower frame breaks ties), else the cluster is lost.
func (s *Selection) Degrade(quarantined map[int]bool) *Degradation {
	plan := make([]int, len(s.Representatives))
	for c, rep := range s.Representatives {
		plan[c] = rep
		if !quarantined[rep] {
			continue
		}
		plan[c] = -1
		best := math.Inf(1)
		for f, cl := range s.Clusters.Assign {
			if cl != c || quarantined[f] {
				continue
			}
			if d := s.centroidDist(c, f); d < best {
				plan[c], best = f, d
			}
		}
	}
	return Degrade(s.Representatives, plan, s.Clusters.Sizes, s.centroidDist)
}

// centroidDist is frame f's squared feature distance to cluster c's
// centroid.
func (s *Selection) centroidDist(c, f int) float64 {
	return linalg.SquaredDistance(s.Features.Vectors[f], s.Clusters.Centroids[c])
}
