package cluster

import (
	"fmt"

	"repro/internal/xmath/stats"
)

// XMeans implements the x-means algorithm of Pelleg & Moore (the
// paper's reference [28], whose BIC formulation MEGsim adopts): start
// from kMin clusters and repeatedly bisect individual clusters, keeping
// each split only when the local BIC of the two-cluster model of that
// cluster's members beats the one-cluster model. The process stops when
// no cluster wants to split or kMax is reached, followed by a global
// Lloyd refinement.
//
// It exists as an alternative to the paper's linear k search
// (cluster.Search); the ablation benches compare the two.
func XMeans(data [][]float64, kMin, kMax int, rng *stats.RNG, maxIter int) (Result, error) {
	n := len(data)
	if n == 0 {
		return Result{}, fmt.Errorf("cluster: XMeans on empty dataset")
	}
	if kMin < 1 || kMin > n {
		return Result{}, fmt.Errorf("cluster: kMin=%d out of range [1,%d]", kMin, n)
	}
	if kMax < kMin {
		return Result{}, fmt.Errorf("cluster: kMax=%d < kMin=%d", kMax, kMin)
	}
	if kMax > n {
		kMax = n
	}

	res := KMeans(data, kMin, rng.Split(), maxIter)
	for res.K < kMax {
		type split struct {
			cluster   int
			centroids [][]float64
		}
		var accepted []split
		// Improve-structure step: try to bisect every cluster.
		for c := 0; c < res.K; c++ {
			if res.Sizes[c] < 4 {
				continue
			}
			members := make([][]float64, 0, res.Sizes[c])
			for i, a := range res.Assign {
				if a == c {
					members = append(members, data[i])
				}
			}
			parent := KMeans(members, 1, rng.Split(), maxIter)
			children := KMeans(members, 2, rng.Split(), maxIter)
			if bic(members, children) > bic(members, parent) {
				accepted = append(accepted, split{cluster: c, centroids: children.Centroids})
			}
		}
		if len(accepted) == 0 {
			break
		}
		// Build the next centroid set: unsplit clusters keep theirs;
		// split clusters contribute their two children (bounded by
		// kMax).
		splitSet := make(map[int][][]float64, len(accepted))
		for _, s := range accepted {
			splitSet[s.cluster] = s.centroids
		}
		var seeds [][]float64
		for c := 0; c < res.K; c++ {
			if kids, ok := splitSet[c]; ok && len(seeds)+2 <= kMax+len(splitSet) {
				seeds = append(seeds, kids...)
			} else {
				seeds = append(seeds, res.Centroids[c])
			}
		}
		if len(seeds) > kMax {
			seeds = seeds[:kMax]
		}
		next := KMeansSeeded(data, len(seeds), rng.Split(), maxIter, seeds)
		if next.K == res.K {
			break // no progress
		}
		res = next
	}
	return res, nil
}
