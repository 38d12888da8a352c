// Package workload synthesizes the benchmark traces of Table II. Since
// the paper's commercial Android games and their captured OpenGL traces
// are unavailable, each benchmark is replaced by a deterministic
// procedural "game" with the same observable structure: the Table II
// frame counts and shader counts, a 2D or 3D rendering style, and a
// multi-phase gameplay timeline (menus, gameplay segments, repeated
// laps/waves, event bursts) that produces the block-structured frame
// similarity the MEGsim clustering exploits (cf. Fig. 5 of the paper).
//
// Every generator is a pure function of (profile, scale, seed): the same
// arguments always produce the identical trace.
package workload

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/gltrace"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/xmath/stats"
)

// Scale controls the physical size of generated frames so full-sequence
// cycle-accurate simulation stays tractable. The paper's absolute
// magnitudes (1440x720, hundreds of thousands of triangles) are not the
// reproduction target; the per-frame *structure* is.
type Scale struct {
	// Width, Height is the render target size in pixels.
	Width, Height int
	// FrameDivisor divides the Table II frame counts (1 = full length).
	FrameDivisor int
	// DetailDivisor divides per-frame instance counts (1 = full detail).
	DetailDivisor int
}

// DefaultScale is used by the experiment harness: full Table II frame
// counts at a reduced resolution.
var DefaultScale = Scale{Width: 320, Height: 160, FrameDivisor: 1, DetailDivisor: 1}

// TestScale is a tiny configuration for unit tests.
var TestScale = Scale{Width: 128, Height: 64, FrameDivisor: 20, DetailDivisor: 2}

func (s Scale) validated() Scale {
	if s.Width <= 0 || s.Height <= 0 {
		panic(fmt.Sprintf("workload: invalid scale %dx%d", s.Width, s.Height))
	}
	if s.FrameDivisor < 1 {
		s.FrameDivisor = 1
	}
	if s.DetailDivisor < 1 {
		s.DetailDivisor = 1
	}
	return s
}

// GameType distinguishes the two rendering styles of Table II.
type GameType int

const (
	// Game2D renders layered orthographic sprites.
	Game2D GameType = iota
	// game3D renders perspective scenes with terrain and models.
	game3D
)

// String returns "2D" or "3D".
func (g GameType) String() string {
	if g == Game2D {
		return "2D"
	}
	return "3D"
}

// Profile describes one benchmark. The eight Table II profiles are in
// Profiles; custom profiles can be constructed directly (see
// examples/custom_workload).
type Profile struct {
	// Alias is the short benchmark name used throughout the paper
	// (asp, bbr1, ...).
	Alias string
	// Title is the full game name.
	Title string
	// Genre matches the Description column of Table II.
	Genre string
	// Type is 2D or 3D.
	Type GameType
	// Frames is the Table II sequence length.
	Frames int
	// NumVS and NumFS are the Table II shader counts.
	NumVS, NumFS int
	// Seed drives all procedural generation for the benchmark.
	Seed uint64
	// Phases is the gameplay timeline. Phase weights are normalized to
	// the total frame count.
	Phases []Phase
	// Detail scales per-frame instance counts relative to other
	// profiles (3D racers are heavier than 2D platformers).
	Detail float64
}

// Phase is one segment of a benchmark's timeline.
type Phase struct {
	// Name labels the phase ("menu", "lap", "wave"...).
	Name string
	// Weight is the fraction of the sequence the phase occupies,
	// relative to the sum of all phase weights.
	Weight float64
	// Repeat splits the phase into this many similar-but-not-identical
	// occurrences spread over its frame budget (laps of a race, waves
	// of a tower defense). 0 means 1.
	Repeat int
	// Layers are the draw layers active during the phase.
	Layers []Layer
	// EventRate is the per-frame probability of a short "event burst"
	// (explosion, power-up flash) that adds extra draws for a few
	// frames, creating outlier frames.
	EventRate float64
}

// AnimKind selects how a layer's instances move.
type AnimKind int

const (
	// animStatic leaves instances fixed for the phase.
	animStatic AnimKind = iota
	// animSpin rotates instances about Y.
	animSpin
	// AnimBob oscillates instances vertically.
	AnimBob
	// AnimScroll translates instances along -X over time (2D scrolling
	// content re-anchored to the camera window).
	AnimScroll
)

// MeshKind selects a layer's mesh from the profile's mesh library.
type MeshKind int

const (
	// MeshQuad is a 2-triangle sprite quad.
	MeshQuad MeshKind = iota
	// meshBox is a 12-triangle cube.
	meshBox
	// meshSphere is a ~96-triangle UV sphere.
	meshSphere
	// meshTerrain is a 128-triangle height-mapped grid.
	meshTerrain
	// meshRoad is an 80-triangle curved road strip.
	meshRoad
	numMeshKinds int = iota
)

// Layer is a group of instances drawn with one material during a phase.
type Layer struct {
	// Name labels the layer ("background", "cars", "hud"...).
	Name string
	// Mesh selects the geometry.
	Mesh MeshKind
	// Material indexes the profile's material table; materials bind a
	// (vertex shader, fragment shader, texture) triple. Use -1 to
	// spread instances across all materials round-robin.
	Material int
	// BaseCount is the instance count at nominal intensity.
	BaseCount int
	// CountAmp modulates the count sinusoidally across the phase
	// (traffic density, enemy waves).
	CountAmp int
	// CountFreq is the modulation frequency in cycles per phase.
	CountFreq float64
	// Spread scatters instances in world units (3D) or screen
	// fractions (2D).
	Spread float64
	// SizeMin and SizeMax bound instance scale.
	SizeMin, SizeMax float64
	// Anim selects instance animation.
	Anim AnimKind
	// Depth is the 2D layer depth (smaller = nearer).
	Depth float64
	// Blend marks the layer's draws as alpha-blended (UI, particles,
	// effects): depth-tested but not depth-written.
	Blend bool
}

// Profiles is the Table II benchmark set, keyed by alias. Shader and
// frame counts match the table exactly; everything else (phase
// structure, detail) is the synthetic substitution documented in
// DESIGN.md.
var Profiles = map[string]Profile{
	"asp":  aspProfile(),
	"bbr1": bbrProfile("bbr1", 2500, 73, 62, 0xbb1),
	"bbr2": bbrProfile("bbr2", 4000, 66, 59, 0xbb2),
	"hcr":  hcrProfile(),
	"hwh":  hwhProfile(),
	"jjo":  jjoProfile(),
	"pvz":  pvzProfile(),
	"spd":  spdProfile(),
}

// Aliases returns the benchmark aliases in the paper's table order.
func Aliases() []string {
	return []string{"asp", "bbr1", "bbr2", "hcr", "hwh", "jjo", "pvz", "spd"}
}

// Get returns the named profile or an error listing valid aliases.
func Get(alias string) (Profile, error) {
	p, ok := Profiles[alias]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q (valid: %v)", alias, Aliases())
	}
	return p, nil
}

func racingLayers(detailedCars int) []Layer {
	return []Layer{
		{Name: "terrain", Mesh: meshTerrain, Material: 0, BaseCount: 2, Spread: 6, SizeMin: 8, SizeMax: 8},
		{Name: "road", Mesh: meshRoad, Material: 1, BaseCount: 2, Spread: 4, SizeMin: 6, SizeMax: 6},
		{Name: "cars", Mesh: meshBox, Material: -1, BaseCount: detailedCars, CountAmp: detailedCars / 3, CountFreq: 2, Spread: 4, SizeMin: 0.4, SizeMax: 0.8, Anim: animSpin},
		{Name: "scenery", Mesh: meshSphere, Material: -1, BaseCount: detailedCars + 2, CountAmp: 3, CountFreq: 3, Spread: 8, SizeMin: 0.5, SizeMax: 2.2},
		{Name: "pickups", Mesh: meshSphere, Material: -1, BaseCount: 4, CountAmp: 2, CountFreq: 5, Spread: 3, SizeMin: 0.2, SizeMax: 0.35, Anim: AnimBob},
		{Name: "hud", Mesh: MeshQuad, Material: -1, BaseCount: 5, Spread: 0.8, SizeMin: 0.05, SizeMax: 0.12, Depth: 0.05, Blend: true},
	}
}

func menuLayers() []Layer {
	return []Layer{
		{Name: "backdrop", Mesh: MeshQuad, Material: 0, BaseCount: 1, SizeMin: 1, SizeMax: 1, Depth: 0.9},
		{Name: "panels", Mesh: MeshQuad, Material: -1, BaseCount: 8, CountAmp: 2, CountFreq: 1, Spread: 0.7, SizeMin: 0.1, SizeMax: 0.3, Depth: 0.5, Blend: true},
		{Name: "buttons", Mesh: MeshQuad, Material: -1, BaseCount: 6, Spread: 0.6, SizeMin: 0.04, SizeMax: 0.1, Depth: 0.2, Blend: true},
	}
}

func aspProfile() Profile {
	return Profile{
		Alias: "asp", Title: "Asphalt 9: Legends", Genre: "Racing", Type: game3D,
		Frames: 4000, NumVS: 42, NumFS: 45, Seed: 0xa59, Detail: 1.4,
		Phases: []Phase{
			{Name: "menu", Weight: 0.06, Layers: menuLayers()},
			{Name: "garage", Weight: 0.06, Layers: []Layer{
				{Name: "car", Mesh: meshSphere, Material: 2, BaseCount: 6, Spread: 1, SizeMin: 1, SizeMax: 1.5, Anim: animSpin},
				{Name: "floor", Mesh: meshTerrain, Material: 3, BaseCount: 1, SizeMin: 6, SizeMax: 6},
				{Name: "ui", Mesh: MeshQuad, Material: -1, BaseCount: 10, Spread: 0.8, SizeMin: 0.05, SizeMax: 0.15, Depth: 0.1, Blend: true},
			}},
			{Name: "race", Weight: 0.68, Repeat: 3, EventRate: 0.02, Layers: racingLayers(14)},
			{Name: "nitro", Weight: 0.12, Repeat: 4, EventRate: 0.05, Layers: append(racingLayers(18),
				Layer{Name: "speedlines", Mesh: MeshQuad, Material: -1, BaseCount: 12, CountAmp: 4, CountFreq: 6, Spread: 0.9, SizeMin: 0.02, SizeMax: 0.3, Depth: 0.15, Blend: true})},
			{Name: "results", Weight: 0.08, Layers: menuLayers()},
		},
	}
}

func bbrProfile(alias string, frames, vs, fs int, seed uint64) Profile {
	return Profile{
		Alias: alias, Title: "Beach Buggy Racing", Genre: "Racing", Type: game3D,
		Frames: frames, NumVS: vs, NumFS: fs, Seed: seed, Detail: 1.1,
		Phases: []Phase{
			{Name: "menu", Weight: 0.08, Layers: menuLayers()},
			{Name: "beach-lap", Weight: 0.30, Repeat: 2, EventRate: 0.02, Layers: racingLayers(10)},
			{Name: "jungle-lap", Weight: 0.28, Repeat: 2, EventRate: 0.03, Layers: append(racingLayers(10),
				Layer{Name: "foliage", Mesh: meshSphere, Material: -1, BaseCount: 10, CountAmp: 4, CountFreq: 4, Spread: 6, SizeMin: 0.8, SizeMax: 2.5})},
			{Name: "powerup-duel", Weight: 0.22, Repeat: 3, EventRate: 0.06, Layers: append(racingLayers(12),
				Layer{Name: "projectiles", Mesh: meshSphere, Material: -1, BaseCount: 6, CountAmp: 5, CountFreq: 8, Spread: 4, SizeMin: 0.15, SizeMax: 0.4, Anim: AnimBob, Blend: true})},
			{Name: "results", Weight: 0.12, Layers: menuLayers()},
		},
	}
}

func hcrProfile() Profile {
	return Profile{
		Alias: "hcr", Title: "Hill Climb Racing", Genre: "Platforms", Type: Game2D,
		Frames: 2000, NumVS: 5, NumFS: 5, Seed: 0xc12, Detail: 0.8,
		Phases: []Phase{
			{Name: "menu", Weight: 0.1, Layers: menuLayers()},
			{Name: "hills", Weight: 0.5, Repeat: 3, EventRate: 0.01, Layers: []Layer{
				{Name: "sky", Mesh: MeshQuad, Material: 0, BaseCount: 1, SizeMin: 1, SizeMax: 1, Depth: 0.95},
				{Name: "ground", Mesh: MeshQuad, Material: 1, BaseCount: 14, Spread: 1, SizeMin: 0.15, SizeMax: 0.3, Anim: AnimScroll, Depth: 0.6},
				{Name: "vehicle", Mesh: MeshQuad, Material: 2, BaseCount: 3, Spread: 0.1, SizeMin: 0.08, SizeMax: 0.15, Anim: AnimBob, Depth: 0.3},
				{Name: "coins", Mesh: MeshQuad, Material: 3, BaseCount: 6, CountAmp: 4, CountFreq: 6, Spread: 0.9, SizeMin: 0.03, SizeMax: 0.05, Anim: AnimScroll, Depth: 0.4, Blend: true},
				{Name: "hud", Mesh: MeshQuad, Material: 4, BaseCount: 4, Spread: 0.7, SizeMin: 0.04, SizeMax: 0.1, Depth: 0.1, Blend: true},
			}},
			{Name: "cave", Weight: 0.3, Repeat: 2, EventRate: 0.02, Layers: []Layer{
				{Name: "rock", Mesh: MeshQuad, Material: 1, BaseCount: 20, Spread: 1, SizeMin: 0.12, SizeMax: 0.35, Anim: AnimScroll, Depth: 0.7},
				{Name: "vehicle", Mesh: MeshQuad, Material: 2, BaseCount: 3, Spread: 0.1, SizeMin: 0.08, SizeMax: 0.15, Anim: AnimBob, Depth: 0.3},
				{Name: "fuel", Mesh: MeshQuad, Material: 3, BaseCount: 2, CountAmp: 2, CountFreq: 3, Spread: 0.8, SizeMin: 0.03, SizeMax: 0.06, Anim: AnimScroll, Depth: 0.4, Blend: true},
				{Name: "hud", Mesh: MeshQuad, Material: 4, BaseCount: 4, Spread: 0.7, SizeMin: 0.04, SizeMax: 0.1, Depth: 0.1, Blend: true},
			}},
			{Name: "gameover", Weight: 0.1, Layers: menuLayers()},
		},
	}
}

func hwhProfile() Profile {
	return Profile{
		Alias: "hwh", Title: "Hot Wheels", Genre: "Racing", Type: game3D,
		Frames: 4000, NumVS: 30, NumFS: 30, Seed: 0x3f1, Detail: 0.9,
		Phases: []Phase{
			{Name: "menu", Weight: 0.08, Layers: menuLayers()},
			{Name: "track", Weight: 0.55, Repeat: 4, EventRate: 0.015, Layers: racingLayers(8)},
			{Name: "loop-stunt", Weight: 0.25, Repeat: 5, EventRate: 0.04, Layers: append(racingLayers(8),
				Layer{Name: "loop", Mesh: meshRoad, Material: -1, BaseCount: 4, Spread: 3, SizeMin: 3, SizeMax: 5, Anim: animSpin})},
			{Name: "results", Weight: 0.12, Layers: menuLayers()},
		},
	}
}

func jjoProfile() Profile {
	return Profile{
		Alias: "jjo", Title: "Jetpack Joyride", Genre: "Side-scrolling endless runner", Type: Game2D,
		Frames: 5000, NumVS: 4, NumFS: 5, Seed: 0x77a, Detail: 0.7,
		Phases: []Phase{
			{Name: "menu", Weight: 0.06, Layers: menuLayers()},
			{Name: "lab-run", Weight: 0.48, Repeat: 4, EventRate: 0.02, Layers: []Layer{
				{Name: "background", Mesh: MeshQuad, Material: 0, BaseCount: 1, SizeMin: 1, SizeMax: 1, Depth: 0.95},
				{Name: "walls", Mesh: MeshQuad, Material: 1, BaseCount: 12, Spread: 1, SizeMin: 0.1, SizeMax: 0.4, Anim: AnimScroll, Depth: 0.7},
				{Name: "player", Mesh: MeshQuad, Material: 2, BaseCount: 2, Spread: 0.05, SizeMin: 0.06, SizeMax: 0.1, Anim: AnimBob, Depth: 0.3},
				{Name: "coins", Mesh: MeshQuad, Material: 3, BaseCount: 8, CountAmp: 6, CountFreq: 8, Spread: 0.9, SizeMin: 0.02, SizeMax: 0.04, Anim: AnimScroll, Depth: 0.4, Blend: true},
				{Name: "zappers", Mesh: MeshQuad, Material: 1, BaseCount: 3, CountAmp: 2, CountFreq: 5, Spread: 0.9, SizeMin: 0.04, SizeMax: 0.2, Anim: AnimScroll, Depth: 0.45},
			}},
			{Name: "vehicle-run", Weight: 0.3, Repeat: 3, EventRate: 0.04, Layers: []Layer{
				{Name: "background", Mesh: MeshQuad, Material: 0, BaseCount: 1, SizeMin: 1, SizeMax: 1, Depth: 0.95},
				{Name: "walls", Mesh: MeshQuad, Material: 1, BaseCount: 16, Spread: 1, SizeMin: 0.1, SizeMax: 0.4, Anim: AnimScroll, Depth: 0.7},
				{Name: "mech", Mesh: MeshQuad, Material: 4, BaseCount: 5, Spread: 0.1, SizeMin: 0.1, SizeMax: 0.2, Anim: AnimBob, Depth: 0.3},
				{Name: "missiles", Mesh: MeshQuad, Material: 1, BaseCount: 4, CountAmp: 3, CountFreq: 10, Spread: 0.9, SizeMin: 0.02, SizeMax: 0.06, Anim: AnimScroll, Depth: 0.35, Blend: true},
			}},
			{Name: "gameover", Weight: 0.16, Layers: menuLayers()},
		},
	}
}

func pvzProfile() Profile {
	return Profile{
		Alias: "pvz", Title: "Plants vs Zombies", Genre: "Tower defense", Type: Game2D,
		Frames: 5000, NumVS: 4, NumFS: 5, Seed: 0x9e2, Detail: 0.75,
		Phases: []Phase{
			{Name: "menu", Weight: 0.08, Layers: menuLayers()},
			{Name: "planting", Weight: 0.24, Repeat: 3, EventRate: 0.005, Layers: []Layer{
				{Name: "lawn", Mesh: MeshQuad, Material: 0, BaseCount: 1, SizeMin: 1, SizeMax: 1, Depth: 0.95},
				{Name: "plants", Mesh: MeshQuad, Material: 1, BaseCount: 10, CountAmp: 6, CountFreq: 1, Spread: 0.8, SizeMin: 0.05, SizeMax: 0.09, Anim: AnimBob, Depth: 0.5},
				{Name: "sun", Mesh: MeshQuad, Material: 2, BaseCount: 3, CountAmp: 2, CountFreq: 6, Spread: 0.9, SizeMin: 0.03, SizeMax: 0.05, Anim: AnimBob, Depth: 0.3, Blend: true},
				{Name: "hud", Mesh: MeshQuad, Material: 3, BaseCount: 6, Spread: 0.7, SizeMin: 0.04, SizeMax: 0.1, Depth: 0.1, Blend: true},
			}},
			{Name: "wave", Weight: 0.44, Repeat: 4, EventRate: 0.03, Layers: []Layer{
				{Name: "lawn", Mesh: MeshQuad, Material: 0, BaseCount: 1, SizeMin: 1, SizeMax: 1, Depth: 0.95},
				{Name: "plants", Mesh: MeshQuad, Material: 1, BaseCount: 18, Spread: 0.8, SizeMin: 0.05, SizeMax: 0.09, Anim: AnimBob, Depth: 0.5},
				{Name: "zombies", Mesh: MeshQuad, Material: 4, BaseCount: 8, CountAmp: 6, CountFreq: 2, Spread: 0.8, SizeMin: 0.06, SizeMax: 0.1, Anim: AnimScroll, Depth: 0.45},
				{Name: "projectiles", Mesh: MeshQuad, Material: 2, BaseCount: 6, CountAmp: 5, CountFreq: 10, Spread: 0.8, SizeMin: 0.015, SizeMax: 0.03, Anim: AnimScroll, Depth: 0.4, Blend: true},
				{Name: "hud", Mesh: MeshQuad, Material: 3, BaseCount: 6, Spread: 0.7, SizeMin: 0.04, SizeMax: 0.1, Depth: 0.1, Blend: true},
			}},
			{Name: "final-wave", Weight: 0.16, Repeat: 2, EventRate: 0.08, Layers: []Layer{
				{Name: "lawn", Mesh: MeshQuad, Material: 0, BaseCount: 1, SizeMin: 1, SizeMax: 1, Depth: 0.95},
				{Name: "plants", Mesh: MeshQuad, Material: 1, BaseCount: 20, Spread: 0.8, SizeMin: 0.05, SizeMax: 0.09, Anim: AnimBob, Depth: 0.5},
				{Name: "horde", Mesh: MeshQuad, Material: 4, BaseCount: 20, CountAmp: 8, CountFreq: 3, Spread: 0.8, SizeMin: 0.06, SizeMax: 0.1, Anim: AnimScroll, Depth: 0.45},
				{Name: "explosions", Mesh: MeshQuad, Material: 2, BaseCount: 4, CountAmp: 4, CountFreq: 12, Spread: 0.8, SizeMin: 0.05, SizeMax: 0.2, Depth: 0.35, Blend: true},
			}},
			{Name: "victory", Weight: 0.08, Layers: menuLayers()},
		},
	}
}

func spdProfile() Profile {
	return Profile{
		Alias: "spd", Title: "Spider-Man Unlimited", Genre: "Side-scrolling endless runner", Type: game3D,
		Frames: 5000, NumVS: 16, NumFS: 26, Seed: 0x5bd, Detail: 1.0,
		Phases: []Phase{
			{Name: "menu", Weight: 0.06, Layers: menuLayers()},
			{Name: "street-run", Weight: 0.4, Repeat: 3, EventRate: 0.02, Layers: []Layer{
				{Name: "city", Mesh: meshBox, Material: -1, BaseCount: 16, CountAmp: 4, CountFreq: 2, Spread: 8, SizeMin: 1.5, SizeMax: 4},
				{Name: "street", Mesh: meshRoad, Material: 0, BaseCount: 3, Spread: 2, SizeMin: 5, SizeMax: 5},
				{Name: "hero", Mesh: meshSphere, Material: 1, BaseCount: 2, Spread: 0.3, SizeMin: 0.3, SizeMax: 0.5, Anim: AnimBob},
				{Name: "pickups", Mesh: meshSphere, Material: -1, BaseCount: 5, CountAmp: 4, CountFreq: 6, Spread: 3, SizeMin: 0.15, SizeMax: 0.3, Anim: AnimBob},
				{Name: "hud", Mesh: MeshQuad, Material: -1, BaseCount: 4, Spread: 0.7, SizeMin: 0.04, SizeMax: 0.1, Depth: 0.1, Blend: true},
			}},
			{Name: "rooftop-swing", Weight: 0.34, Repeat: 4, EventRate: 0.03, Layers: []Layer{
				{Name: "towers", Mesh: meshBox, Material: -1, BaseCount: 22, CountAmp: 6, CountFreq: 3, Spread: 10, SizeMin: 2, SizeMax: 6},
				{Name: "hero", Mesh: meshSphere, Material: 1, BaseCount: 2, Spread: 0.3, SizeMin: 0.3, SizeMax: 0.5, Anim: AnimBob},
				{Name: "webs", Mesh: MeshQuad, Material: -1, BaseCount: 6, CountAmp: 3, CountFreq: 8, Spread: 4, SizeMin: 0.05, SizeMax: 0.4, Blend: true},
				{Name: "hud", Mesh: MeshQuad, Material: -1, BaseCount: 4, Spread: 0.7, SizeMin: 0.04, SizeMax: 0.1, Depth: 0.1, Blend: true},
			}},
			{Name: "boss", Weight: 0.14, Repeat: 2, EventRate: 0.06, Layers: []Layer{
				{Name: "arena", Mesh: meshTerrain, Material: 0, BaseCount: 2, Spread: 2, SizeMin: 8, SizeMax: 8},
				{Name: "boss", Mesh: meshSphere, Material: 2, BaseCount: 4, Spread: 1, SizeMin: 0.8, SizeMax: 1.5, Anim: animSpin},
				{Name: "hero", Mesh: meshSphere, Material: 1, BaseCount: 2, Spread: 0.3, SizeMin: 0.3, SizeMax: 0.5, Anim: AnimBob},
				{Name: "effects", Mesh: MeshQuad, Material: -1, BaseCount: 8, CountAmp: 6, CountFreq: 10, Spread: 3, SizeMin: 0.05, SizeMax: 0.5, Blend: true},
			}},
			{Name: "results", Weight: 0.06, Layers: menuLayers()},
		},
	}
}

// frameSeed derives the deterministic per-frame RNG seed so every frame's
// content is a pure function of (profile seed, frame index).
func frameSeed(seed uint64, frame int) uint64 {
	x := seed ^ (uint64(frame)+1)*0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// material binds a shader pair and texture.
type material struct {
	vs, fs, tex int32
}

// Generate builds the complete trace for the profile at the given scale.
// The result always validates.
func Generate(p Profile, sc Scale) (*gltrace.Trace, error) {
	sc = sc.validated()
	if p.Frames <= 0 || p.NumVS <= 0 || p.NumFS <= 0 {
		return nil, fmt.Errorf("workload %s: profile needs positive frames and shader counts", p.Alias)
	}
	if len(p.Phases) == 0 {
		return nil, fmt.Errorf("workload %s: profile has no phases", p.Alias)
	}
	rng := stats.NewRNG(p.Seed)
	tr := &gltrace.Trace{
		Name:     p.Alias,
		Viewport: geom.Viewport{Width: sc.Width, Height: sc.Height},
	}

	// Shader programs: mix of simple and complex according to game type.
	gen := shader.NewGenerator(rng.Split())
	for i := 0; i < p.NumVS; i++ {
		c := shader.SimpleVertex
		if p.Type == game3D && i%3 != 0 {
			c = shader.ComplexVertex
		}
		tr.VertexShaders = append(tr.VertexShaders, gen.Vertex(c))
	}
	for i := 0; i < p.NumFS; i++ {
		c := shader.SimpleFragment
		if p.Type == game3D && i%2 == 0 {
			c = shader.ComplexFragment
		}
		tr.FragmentShaders = append(tr.FragmentShaders, gen.Fragment(c))
	}

	// Mesh library, indexed by MeshKind.
	tr.Meshes = []gltrace.Mesh{
		MeshQuad:    scene.Quad("quad"),
		meshBox:     scene.Box("box"),
		meshSphere:  scene.Sphere("sphere", 6, 8),
		meshTerrain: terrainMesh(rng.Split()),
		meshRoad:    scene.RoadStrip("road", 20, 0.25),
	}

	// Textures: one per material slot, varied sizes.
	numMaterials := p.NumVS
	if p.NumFS > numMaterials {
		numMaterials = p.NumFS
	}
	texSizes := []int{64, 128, 256}
	for i := 0; i < numMaterials; i++ {
		s := texSizes[i%len(texSizes)]
		tr.Textures = append(tr.Textures, gltrace.Texture{
			Name: fmt.Sprintf("tex_%d", i), Width: s, Height: s, BytesPerTexel: 4,
		})
	}
	materials := make([]material, numMaterials)
	for i := range materials {
		materials[i] = material{vs: int32(i % p.NumVS), fs: int32(i % p.NumFS), tex: int32(i)}
	}

	frames := p.Frames / sc.FrameDivisor
	if frames < len(p.Phases) {
		frames = len(p.Phases)
	}
	schedule := buildSchedule(p, frames)
	cam := cameraFor(p, sc)

	tr.Frames = make([]gltrace.Frame, 0, frames)
	b := &builder{
		profile:   p,
		scale:     sc,
		trace:     tr,
		materials: materials,
		camera:    cam,
	}
	for f := 0; f < frames; f++ {
		b.emitFrame(f, schedule[f])
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: generated invalid trace: %w", p.Alias, err)
	}
	return tr, nil
}

// MustGenerate is Generate panicking on error; the built-in profiles
// always generate successfully.
func MustGenerate(p Profile, sc Scale) *gltrace.Trace {
	tr, err := Generate(p, sc)
	if err != nil {
		panic(err)
	}
	return tr
}

func terrainMesh(rng *stats.RNG) gltrace.Mesh {
	a := rng.Range(1, 3)
	b := rng.Range(2, 5)
	return scene.Grid("terrain", 8, 8, func(x, z float64) float64 {
		return 0.08*math.Sin(a*x*6) + 0.06*math.Cos(b*z*5)
	})
}

func cameraFor(p Profile, sc Scale) scene.Camera {
	aspect := float64(sc.Width) / float64(sc.Height)
	switch p.Type {
	case game3D:
		return scene.ChaseCamera{
			Path:   scene.CircuitPath(12, 9, 25),
			Height: 2.2, Back: 5,
			FovY: math.Pi / 3, Aspect: aspect,
		}
	default:
		return scene.SideScroller{Width: 100 * aspect, Height: 100, Speed: 18}
	}
}

// slot describes which phase occurrence a frame belongs to.
type slot struct {
	phase      int     // index into p.Phases
	occurrence int     // repeat number within the phase
	t          float64 // position within the occurrence, [0, 1)
}

// buildSchedule assigns every frame to a phase occurrence according to
// the phase weights and repeats.
func buildSchedule(p Profile, frames int) []slot {
	totalW := 0.0
	for _, ph := range p.Phases {
		totalW += ph.Weight
	}
	if totalW <= 0 {
		totalW = 1
	}
	sched := make([]slot, 0, frames)
	assigned := 0
	for pi, ph := range p.Phases {
		n := int(math.Round(ph.Weight / totalW * float64(frames)))
		if pi == len(p.Phases)-1 {
			n = frames - assigned // absorb rounding residue
		}
		if n <= 0 {
			continue
		}
		rep := ph.Repeat
		if rep < 1 {
			rep = 1
		}
		per := n / rep
		if per == 0 {
			per, rep = n, 1
		}
		for i := 0; i < n; i++ {
			occ := i / per
			if occ >= rep {
				occ = rep - 1
			}
			within := i - occ*per
			length := per
			if occ == rep-1 {
				length = n - (rep-1)*per
			}
			sched = append(sched, slot{phase: pi, occurrence: occ, t: float64(within) / float64(length)})
		}
		assigned += n
	}
	// Guard against rounding shortfalls.
	for len(sched) < frames {
		sched = append(sched, sched[len(sched)-1])
	}
	return sched[:frames]
}

// builder accumulates frames into the trace.
type builder struct {
	profile   Profile
	scale     Scale
	trace     *gltrace.Trace
	materials []material
	camera    scene.Camera
	// event tracks a live event burst: frames remaining and its layer.
	eventFrames int
	eventLayer  Layer
	// cmds and mvps are the frame under construction, reused across
	// frames; emitFrame copies them into the trace at exact length so
	// no append slack stays resident.
	cmds []gltrace.Command
	mvps []geom.Mat4
}

func (b *builder) emitFrame(f int, s slot) {
	p := b.profile
	ph := p.Phases[s.phase]
	rng := stats.NewRNG(frameSeed(p.Seed, f))
	t := float64(f) / 60.0
	vp := b.camera.ViewProjection(t)

	b.cmds = append(b.cmds[:0], gltrace.Command{Op: gltrace.CmdClear})
	b.mvps = b.mvps[:0]

	// Occurrence-specific variation: each repeat of a phase shifts
	// which materials its layers use, so laps are similar to each
	// other but not identical.
	matShift := s.occurrence * 3

	for li := range ph.Layers {
		b.emitLayer(&ph.Layers[li], li, s, matShift, t, &vp, rng)
	}

	// Event bursts add a short-lived extra layer with rare materials,
	// creating outlier frames that should land in small clusters.
	if b.eventFrames > 0 {
		b.eventFrames--
		b.emitLayer(&b.eventLayer, 99, s, matShift, t, &vp, rng)
	} else if ph.EventRate > 0 && rng.Float64() < ph.EventRate {
		b.eventFrames = 3 + rng.Intn(6)
		b.eventLayer = Layer{
			Name: "event", Mesh: MeshQuad, Material: -1,
			BaseCount: 10 + rng.Intn(10), Spread: 0.9,
			SizeMin: 0.05, SizeMax: 0.4, Depth: 0.2, Blend: true,
		}
	}

	frame := gltrace.Frame{
		Commands: make([]gltrace.Command, len(b.cmds)),
		MVPs:     make([]geom.Mat4, len(b.mvps)),
	}
	copy(frame.Commands, b.cmds)
	copy(frame.MVPs, b.mvps)
	b.trace.Frames = append(b.trace.Frames, frame)
}

func (b *builder) emitLayer(layer *Layer, li int, s slot, matShift int, t float64, vp *geom.Mat4, rng *stats.RNG) {
	p := b.profile
	count := layer.BaseCount
	if layer.CountAmp > 0 {
		count += int(float64(layer.CountAmp) * math.Sin(2*math.Pi*layer.CountFreq*s.t+float64(li)))
	}
	count = int(float64(count) * p.Detail / float64(b.scale.DetailDivisor))
	if count <= 0 {
		return
	}
	for i := 0; i < count; i++ {
		mi := layer.Material
		if mi < 0 {
			mi = (li*7 + i + matShift) % len(b.materials)
		} else {
			mi = (mi + matShift) % len(b.materials)
		}
		m := b.materials[mi]
		b.cmds = append(b.cmds,
			gltrace.Command{Op: gltrace.CmdBindProgram, VS: m.vs, FS: m.fs},
			gltrace.Command{Op: gltrace.CmdBindTexture, Unit: 0, Texture: m.tex},
			gltrace.Command{
				Op:        gltrace.CmdDraw,
				Mesh:      int32(layer.Mesh),
				DepthBias: layer.Depth,
				Blend:     layer.Blend,
			},
		)
		var model geom.Mat4
		b.instanceModel(&model, layer, li, i, s, t)
		b.mvps = append(b.mvps, geom.Mat4{})
		b.mvps[len(b.mvps)-1].Mul(vp, &model)
	}
}

// instanceModel sets model to the deterministic placement of instance
// i of a layer. Placement is stable across frames of the same occurrence
// (scatter seeded by layer+instance+occurrence, not by frame), while the
// animation term advances with time — consecutive frames look alike,
// distinct occurrences differ.
func (b *builder) instanceModel(model *geom.Mat4, layer *Layer, li, i int, s slot, t float64) {
	place := stats.NewRNG(frameSeed(b.profile.Seed^0xfeed, li*1000+i+s.occurrence*100000))
	size := place.Range(layer.SizeMin, layer.SizeMax)
	var pos geom.Vec3
	if b.profile.Type == Game2D {
		// 2D: place within the camera window in world units; the
		// side-scrolling camera window is 100*aspect x 100.
		aspect := float64(b.scale.Width) / float64(b.scale.Height)
		w, h := 100*aspect, 100.0
		x := place.Range(0, w) * (0.5 + layer.Spread/2)
		y := place.Range(0.05*h, 0.95*h)
		if layer.Anim == AnimScroll {
			// Scrolled content is re-anchored to the moving window.
			cam, ok := b.camera.(scene.SideScroller)
			if ok {
				span := w * (1 + layer.Spread)
				x = cam.Speed*t + math.Mod(x+cam.Speed*t*0.2, span)
				x = math.Mod(x, cam.Speed*t+w+span)
			}
		} else if cam, ok := b.camera.(scene.SideScroller); ok {
			x += cam.Speed * t // static HUD/backdrop rides with the camera
		}
		pos = geom.Vec3{X: x, Y: y, Z: -layer.Depth * 5}
		size *= h
	} else {
		// 3D: scatter around the camera path position.
		center := scene.CircuitPath(12, 9, 25)(t + 0.2)
		pos = center.Add(geom.Vec3{
			X: place.Norm(0, layer.Spread),
			Y: place.Range(0, layer.Spread*0.2),
			Z: place.Norm(0, layer.Spread),
		})
		if layer.Depth > 0 {
			// 3D HUD elements float directly in front of the camera.
			pos = scene.CircuitPath(12, 9, 25)(t + 0.05).Add(geom.Vec3{
				X: place.Range(-1, 1), Y: place.Range(0.5, 1.8), Z: 0,
			})
		}
	}
	inst := scene.Instance{Position: pos, Scale: geom.Vec3{X: size, Y: size, Z: size}}
	switch layer.Anim {
	case animSpin:
		inst.YawSpeed = 0.5 + float64(i%5)*0.3
	case AnimBob:
		inst.BobAmp = size * 0.2
		inst.BobFreq = 0.5 + float64(i%3)*0.4
	}
	inst.Model(model, t)
}
