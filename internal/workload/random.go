package workload

import (
	"fmt"

	"repro/internal/xmath/stats"
)

// RandomProfile synthesizes a randomized benchmark profile as a pure
// function of the seed: same seed, same profile, always. The validation
// oracle (internal/check) runs the full methodology over a population
// of these to measure sampled-vs-full error on workloads nobody tuned
// the clustering against — the randomized counterpart of the Table II
// set.
//
// The structural envelope matches the hand-written profiles: a menu
// bookending 2-4 gameplay phases with repeats and event bursts, layer
// counts and animation kinds drawn from the same vocabulary, so the
// traces exercise the same simulator paths at comparable per-frame
// cost.
func RandomProfile(seed uint64) Profile {
	rng := stats.NewRNG(seed)
	p := Profile{
		Alias: fmt.Sprintf("rnd-%x", seed),
		Title: fmt.Sprintf("Randomized workload %#x", seed),
		Genre: "Randomized validation",
		Seed:  seed,
	}
	if rng.Float64() < 0.5 {
		p.Type = Game2D
		p.NumVS = 3 + rng.Intn(4)
		p.NumFS = 3 + rng.Intn(5)
		p.Detail = rng.Range(0.55, 0.85)
	} else {
		p.Type = game3D
		p.NumVS = 8 + rng.Intn(20)
		p.NumFS = 8 + rng.Intn(24)
		p.Detail = rng.Range(0.7, 1.1)
	}
	p.Frames = 600 + rng.Intn(1000)

	gameplay := 2 + rng.Intn(3)
	p.Phases = append(p.Phases, Phase{Name: "menu", Weight: rng.Range(0.05, 0.12), Layers: menuLayers()})
	weightLeft := 1.0 - 2*p.Phases[0].Weight
	for g := 0; g < gameplay; g++ {
		w := weightLeft / float64(gameplay) * rng.Range(0.7, 1.3)
		p.Phases = append(p.Phases, randomGameplayPhase(rng, p.Type, g, w))
	}
	p.Phases = append(p.Phases, Phase{Name: "results", Weight: p.Phases[0].Weight, Layers: menuLayers()})
	return p
}

func randomGameplayPhase(rng *stats.RNG, t GameType, idx int, weight float64) Phase {
	ph := Phase{
		Name:      fmt.Sprintf("play-%d", idx),
		Weight:    weight,
		Repeat:    1 + rng.Intn(4),
		EventRate: rng.Range(0, 0.05),
	}
	nLayers := 3 + rng.Intn(3)
	for l := 0; l < nLayers; l++ {
		ph.Layers = append(ph.Layers, randomLayer(rng, t, l))
	}
	return ph
}

func randomLayer(rng *stats.RNG, t GameType, idx int) Layer {
	anims := []AnimKind{animStatic, animSpin, AnimBob, AnimScroll}
	ly := Layer{
		Name:      fmt.Sprintf("layer-%d", idx),
		Material:  -1,
		BaseCount: 2 + rng.Intn(12),
		Spread:    rng.Range(0.5, 6),
		Anim:      anims[rng.Intn(len(anims))],
		Blend:     rng.Float64() < 0.3,
	}
	if rng.Float64() < 0.6 {
		ly.CountAmp = 1 + rng.Intn(6)
		ly.CountFreq = rng.Range(1, 8)
	}
	if t == Game2D {
		ly.Mesh = MeshQuad
		ly.Anim = []AnimKind{animStatic, AnimBob, AnimScroll}[rng.Intn(3)]
		ly.SizeMin = rng.Range(0.03, 0.08)
		ly.SizeMax = ly.SizeMin + rng.Range(0.02, 0.25)
		ly.Depth = rng.Range(0.1, 0.9)
		ly.Spread = rng.Range(0.5, 1)
	} else {
		meshes := []MeshKind{MeshQuad, meshBox, meshSphere, meshTerrain, meshRoad}
		ly.Mesh = meshes[rng.Intn(len(meshes))]
		ly.SizeMin = rng.Range(0.2, 1.5)
		ly.SizeMax = ly.SizeMin + rng.Range(0.1, 2.5)
		if ly.Mesh == meshTerrain || ly.Mesh == meshRoad {
			// Large static ground geometry, like the hand-written tracks.
			ly.BaseCount = 1 + rng.Intn(3)
			ly.SizeMin, ly.SizeMax = 5, 8
			ly.Anim = animStatic
		}
	}
	return ly
}
