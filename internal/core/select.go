package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/xmath/stats"
)

// Config is the complete MEGsim configuration.
type Config struct {
	// Feature controls vector-of-characteristics construction.
	Feature FeatureConfig
	// Search controls the k-means/BIC cluster-count search.
	Search cluster.SearchConfig
	// Seed drives k-means initialization.
	Seed uint64
}

// DefaultConfig returns the paper's settings (T = 0.85, paper phase
// weights, texture weighting on, PRIM on).
func DefaultConfig() Config {
	return Config{
		Feature: DefaultFeatureConfig(),
		Search:  cluster.DefaultSearchConfig(),
		Seed:    1,
	}
}

// Selection is MEGsim's output: the chosen clustering and the
// representative frame of each cluster.
type Selection struct {
	// Features is the characterization matrix the clustering ran on.
	Features *FeatureSet
	// Clusters is the chosen clustering.
	Clusters cluster.Result
	// Representatives[c] is the frame index simulated for cluster c
	// (the member closest to the centroid).
	Representatives []int
	// BICScores[i] is the score of k = i+1 during the search.
	BICScores []float64
}

// NumFrames returns the sequence length.
func (s *Selection) NumFrames() int { return len(s.Clusters.Assign) }

// NumRepresentatives returns how many frames must be simulated.
func (s *Selection) NumRepresentatives() int { return len(s.Representatives) }

// ReductionFactor returns frames / representatives — the Table III
// metric.
func (s *Selection) ReductionFactor() float64 {
	if s.NumRepresentatives() == 0 {
		return 0
	}
	return float64(s.NumFrames()) / float64(s.NumRepresentatives())
}

// ClusterOf returns the cluster index of a frame.
func (s *Selection) ClusterOf(frame int) int { return s.Clusters.Assign[frame] }

// Select runs the MEGsim frame-selection pipeline on a feature set:
// k-means with BIC-scored cluster-count search, then representative
// extraction. It is Explore followed by Cut at cfg.Search.Threshold.
func Select(fs *FeatureSet, cfg Config) (*Selection, error) {
	ex, err := Explore(fs, cfg)
	if err != nil {
		return nil, err
	}
	return Cut(fs, ex, cfg.Search.Threshold)
}

// Explore runs the threshold-free half of Select: the k-means/BIC
// exploration over k, seeded by cfg.Seed. It never reads
// cfg.Search.Threshold, so one exploration serves every threshold over
// the same features and ExplorationKey.
func Explore(fs *FeatureSet, cfg Config) (*cluster.Exploration, error) {
	if fs == nil || len(fs.Vectors) == 0 {
		return nil, fmt.Errorf("core: empty feature set")
	}
	ex, err := cluster.Explore(fs.Vectors, cfg.Search, stats.NewRNG(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("core: cluster search: %w", err)
	}
	return ex, nil
}

// ExplorationKey is the part of cfg that determines Explore's result:
// cfg with the threshold zeroed and the observability registry
// cleared. Over the same features, configurations with equal keys
// explore identically, so callers that memoize explorations key them
// on it.
func ExplorationKey(cfg Config) Config {
	cfg.Search.Threshold = 0
	cfg.Search.Obs = nil
	return cfg
}

// Cut picks the clustering at threshold from an exploration of fs and
// extracts its representatives. It never modifies ex.
func Cut(fs *FeatureSet, ex *cluster.Exploration, threshold float64) (*Selection, error) {
	if fs == nil || len(fs.Vectors) == 0 {
		return nil, fmt.Errorf("core: empty feature set")
	}
	sr, err := ex.Cut(fs.Vectors, threshold)
	if err != nil {
		return nil, fmt.Errorf("core: cluster search: %w", err)
	}
	reps := cluster.Representatives(fs.Vectors, sr.Best)
	for c, r := range reps {
		if r < 0 {
			return nil, fmt.Errorf("core: cluster %d has no representative", c)
		}
	}
	return &Selection{
		Features:        fs,
		Clusters:        sr.Best,
		Representatives: reps,
		BICScores:       sr.Scores,
	}, nil
}
