package core

import (
	"fmt"

	"repro/internal/tbr"
	"repro/internal/xmath/stats"
)

// Estimate extrapolates full-sequence statistics from simulated
// representatives: each representative's statistics are scaled by its
// cluster's size and summed (Section III-E).
func (s *Selection) Estimate(repStats map[int]tbr.FrameStats) (tbr.FrameStats, error) {
	return Extrapolate(s.Representatives, s.Clusters.Sizes, repStats)
}

// Extrapolate is MEGsim's estimator, shared by batch clusters and
// streaming strata (Section III-E): plan[g] is the frame simulated for
// group g, or -1 when the group was lost to quarantine, and sizes[g] is
// the group's member count. Each planned frame's statistics scale by
// its group's size and sum. When groups were lost, the partial total
// rescales by frames/covered so the estimate still targets the whole
// sequence: the lost groups are assumed to behave like the surviving
// mix, which is the accuracy loss a degraded run reports.
func Extrapolate(plan, sizes []int, repStats map[int]tbr.FrameStats) (tbr.FrameStats, error) {
	if len(plan) != len(sizes) {
		return tbr.FrameStats{}, fmt.Errorf("core: plan has %d groups, sizes %d", len(plan), len(sizes))
	}
	var total tbr.FrameStats
	frames, covered := 0, 0
	for g, f := range plan {
		frames += sizes[g]
		if f < 0 {
			continue
		}
		st, ok := repStats[f]
		if !ok {
			return tbr.FrameStats{}, fmt.Errorf("core: missing simulated stats for representative frame %d (group %d)", f, g)
		}
		scaled := st.Scale(uint64(sizes[g]))
		total.Add(&scaled)
		covered += sizes[g]
	}
	if covered == 0 {
		return tbr.FrameStats{}, fmt.Errorf("core: every cluster lost to quarantine; no estimate possible")
	}
	if covered < frames {
		total = total.ScaleF(float64(frames) / float64(covered))
	}
	total.Frame = -1
	return total, nil
}

// Metric identifies one of the four key performance metrics the paper
// evaluates accuracy on (Fig. 7).
type Metric int

const (
	// MetricCycles is the total number of cycles (execution time).
	MetricCycles Metric = iota
	// MetricDRAM is the number of main memory accesses.
	MetricDRAM
	// MetricL2 is the number of L2 cache accesses.
	MetricL2
	// MetricTileCache is the number of L1 (tile cache) accesses.
	MetricTileCache
	// numMetrics is the metric count.
	numMetrics
)

// String names the metric as the paper does.
func (m Metric) String() string {
	switch m {
	case MetricCycles:
		return "cycles"
	case MetricDRAM:
		return "dram-accesses"
	case MetricL2:
		return "l2-accesses"
	case MetricTileCache:
		return "tile-cache-accesses"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Of extracts the metric's value from frame statistics.
func (m Metric) Of(st *tbr.FrameStats) float64 {
	switch m {
	case MetricCycles:
		return float64(st.Cycles)
	case MetricDRAM:
		return float64(st.DRAM.Accesses)
	case MetricL2:
		return float64(st.L2.Accesses)
	case MetricTileCache:
		return float64(st.TileCache.Accesses)
	default:
		panic("core: unknown metric")
	}
}

// Metrics lists the four Fig. 7 metrics in paper order.
func Metrics() []Metric {
	return []Metric{MetricCycles, MetricDRAM, MetricL2, MetricTileCache}
}

// Accuracy holds per-metric relative errors (fractions, not percent).
type Accuracy [numMetrics]float64

// Percent returns the metric's error as a percentage.
func (a Accuracy) Percent(m Metric) float64 { return a[m] * 100 }

// EvaluateAccuracy compares a MEGsim estimate against ground truth
// (the full-sequence simulation) on the four key metrics.
func EvaluateAccuracy(estimate, actual *tbr.FrameStats) Accuracy {
	var a Accuracy
	for _, m := range Metrics() {
		a[m] = stats.RelativeError(m.Of(estimate), m.Of(actual))
	}
	return a
}

// SumStats totals a full per-frame statistics slice — the ground truth
// MEGsim estimates are compared against.
func SumStats(frames []tbr.FrameStats) tbr.FrameStats {
	var total tbr.FrameStats
	for i := range frames {
		total.Add(&frames[i])
	}
	total.Frame = -1
	return total
}

// EstimateFromFullRun is a convenience for evaluation studies where the
// whole sequence has already been simulated: it extracts the
// representatives' stats from the full run and scales them, exactly as
// if only those frames had been simulated (frame isolation makes the
// two identical).
func (s *Selection) EstimateFromFullRun(full []tbr.FrameStats) (tbr.FrameStats, error) {
	if len(full) != s.NumFrames() {
		return tbr.FrameStats{}, fmt.Errorf("core: full run has %d frames, selection has %d", len(full), s.NumFrames())
	}
	rep := make(map[int]tbr.FrameStats, len(s.Representatives))
	for _, r := range s.Representatives {
		rep[r] = full[r]
	}
	return s.Estimate(rep)
}
