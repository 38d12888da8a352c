// Package core implements the MEGsim methodology itself — the paper's
// primary contribution (Section III): building each frame's vector of
// characteristics from functional-simulation profiles, normalizing and
// weighting its three groups by pipeline-phase activity, clustering the
// frames, selecting one representative per cluster, and estimating
// full-sequence statistics from the representatives. It also implements
// the random sub-sampling baseline of Section V-C.
package core

import (
	"fmt"

	"repro/internal/funcsim"
	"repro/internal/shader"
)

// PhaseWeights are the per-group weights of the vector of
// characteristics, proportional to the power dissipated in each pipeline
// phase (Section III-C, Fig. 4).
type PhaseWeights struct {
	// Geometry weights the VSCV group.
	Geometry float64
	// Raster weights the FSCV group.
	Raster float64
	// Tiling weights the PRIM component.
	Tiling float64
}

// paperWeights are the measured fractions the paper reports: Geometry
// 10.8%, Raster 74.5%, Tiling 14.7%.
var paperWeights = PhaseWeights{Geometry: 0.108, Raster: 0.745, Tiling: 0.147}

// UniformWeights weight the three groups equally (ablation baseline).
var UniformWeights = PhaseWeights{Geometry: 1.0 / 3, Raster: 1.0 / 3, Tiling: 1.0 / 3}

// FeatureConfig controls how vectors of characteristics are built.
type FeatureConfig struct {
	// Weights are the per-group phase weights.
	Weights PhaseWeights
	// UseTextureWeights applies the filter-mode memory weights (2/4/8)
	// to shader instruction counts, as Section III-B prescribes.
	// Disabling it is an ablation.
	UseTextureWeights bool
	// IncludePrim appends the PRIM component. Disabling it is an
	// ablation (it leaves the Tiling Engine uncharacterized).
	IncludePrim bool
}

// DefaultFeatureConfig returns the paper's configuration.
func DefaultFeatureConfig() FeatureConfig {
	return FeatureConfig{
		Weights:           paperWeights,
		UseTextureWeights: true,
		IncludePrim:       true,
	}
}

// FeatureSet is the N x D matrix of per-frame characteristic vectors
// plus the group structure needed for reporting.
type FeatureSet struct {
	// Vectors[f] is frame f's weighted vector of characteristics.
	Vectors [][]float64
	// NumVS and NumFS are the group sizes (D = NumVS + NumFS + 0/1).
	NumVS, NumFS int
	// HasPrim records whether the PRIM column is present (the last).
	HasPrim bool
}

// dims returns the vector length D.
func (fs *FeatureSet) dims() int {
	d := fs.NumVS + fs.NumFS
	if fs.HasPrim {
		d++
	}
	return d
}

// BuildFeatures turns a functional-simulation result into the MEGsim
// N x D matrix of characteristics (Section III-B and III-C):
//
//   - element (f, s) of the VSCV/FSCV groups is the number of times
//     shader s executed in frame f multiplied by the shader's
//     instruction count, with texture instructions weighted by their
//     filter-mode memory accesses;
//   - the PRIM column is the frame's visible primitive count;
//   - each group is normalized by its total over the whole sequence and
//     scaled by its phase weight, so the groups contribute to Euclidean
//     distances in proportion to the activity of their pipeline phase.
func BuildFeatures(res *funcsim.Result, cfg FeatureConfig) (*FeatureSet, error) {
	if len(res.Profiles) == 0 {
		return nil, fmt.Errorf("core: no frame profiles to characterize")
	}
	numVS, numFS := len(res.VSStatic), len(res.FSStatic)
	fs := &FeatureSet{NumVS: numVS, NumFS: numFS, HasPrim: cfg.IncludePrim}
	d := fs.dims()

	vsInstr := InstrWeights(res.VSStatic, cfg.UseTextureWeights)
	fsInstr := InstrWeights(res.FSStatic, cfg.UseTextureWeights)

	fs.Vectors = make([][]float64, len(res.Profiles))
	backing := make([]float64, len(res.Profiles)*d)
	var vsSum, fsSum, primSum float64
	for f := range res.Profiles {
		p := &res.Profiles[f]
		if len(p.VSCount) != numVS || len(p.FSCount) != numFS {
			return nil, fmt.Errorf("core: frame %d profile has wrong vector lengths", f)
		}
		row := backing[f*d : (f+1)*d]
		fs.Vectors[f] = row
		for s, cnt := range p.VSCount {
			row[s] = float64(cnt) * vsInstr[s]
			vsSum += row[s]
		}
		for s, cnt := range p.FSCount {
			row[numVS+s] = float64(cnt) * fsInstr[s]
			fsSum += row[numVS+s]
		}
		if cfg.IncludePrim {
			row[d-1] = float64(p.PrimsVisible)
			primSum += row[d-1]
		}
	}

	// Per-group normalization and phase weighting (Section III-C).
	scaleGroup(fs.Vectors, 0, numVS, cfg.Weights.Geometry, vsSum)
	scaleGroup(fs.Vectors, numVS, numVS+numFS, cfg.Weights.Raster, fsSum)
	if cfg.IncludePrim {
		scaleGroup(fs.Vectors, d-1, d, cfg.Weights.Tiling, primSum)
	}
	return fs, nil
}

// instrWeight is the characterization weight of one shader: its
// instruction count with texture instructions replaced by their
// filter-mode memory accesses when weighting is enabled.
func instrWeight(instrs, texSamples, texMem int, useTexWeights bool) float64 {
	if !useTexWeights {
		return float64(instrs)
	}
	return float64(instrs-texSamples) + float64(texMem)
}

// InstrWeights maps per-program static costs to their characterization
// weights — the Section III-B shader weighting shared by the batch
// BuildFeatures and the streaming ingestor (internal/stream), so the
// two pipelines weight shader activity identically by construction.
func InstrWeights(costs []shader.Cost, useTexWeights bool) []float64 {
	out := make([]float64, len(costs))
	for i, c := range costs {
		out[i] = instrWeight(c.Instructions, c.TexSamples, c.TexMemAccesses, useTexWeights)
	}
	return out
}

func scaleGroup(vectors [][]float64, lo, hi int, weight, groupSum float64) {
	if groupSum <= 0 {
		return
	}
	// The group's total mass over the whole sequence becomes `weight`,
	// so Euclidean distances see the groups in phase-weight proportion.
	// N keeps per-frame magnitudes comparable across sequence lengths.
	k := weight / groupSum * float64(len(vectors))
	for _, row := range vectors {
		for j := lo; j < hi; j++ {
			row[j] *= k
		}
	}
}
