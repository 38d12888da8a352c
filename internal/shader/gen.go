package shader

import (
	"fmt"

	"repro/internal/xmath/stats"
)

// Generator synthesizes deterministic shader programs for the synthetic
// workloads. Given the same RNG seed it always produces the same programs,
// so every benchmark trace is reproducible.
type Generator struct {
	rng    *stats.RNG
	nextID int
}

// NewGenerator returns a generator drawing from rng.
func NewGenerator(rng *stats.RNG) *Generator {
	return &Generator{rng: rng}
}

// Complexity controls the size and texture usage of generated programs.
type Complexity struct {
	// MinInstrs and MaxInstrs bound the straight-line ALU body length.
	MinInstrs, MaxInstrs int
	// TexSamples is the number of texture instructions (fragment
	// shaders only; vertex shaders never sample in this pipeline).
	TexSamples int
	// Samplers is the number of texture units the program may address.
	Samplers int
	// BranchProb is the probability of emitting one IF block.
	BranchProb float64
	// LoopProb is the probability of emitting one small LOOP block.
	LoopProb float64
}

// SimpleVertex is a typical small vertex shader complexity (2D games).
var SimpleVertex = Complexity{MinInstrs: 6, MaxInstrs: 14}

// ComplexVertex is a typical 3D-game vertex shader complexity (skinning,
// per-vertex lighting).
var ComplexVertex = Complexity{MinInstrs: 18, MaxInstrs: 48, BranchProb: 0.3, LoopProb: 0.25}

// SimpleFragment is a typical 2D sprite fragment shader: one bilinear
// texture fetch and a little blending math.
var SimpleFragment = Complexity{MinInstrs: 4, MaxInstrs: 10, TexSamples: 1, Samplers: 1}

// ComplexFragment is a typical 3D-game fragment shader: several texture
// layers and lighting math.
var ComplexFragment = Complexity{MinInstrs: 12, MaxInstrs: 40, TexSamples: 3, Samplers: 4, BranchProb: 0.4, LoopProb: 0.15}

// Vertex generates a vertex shader with the given complexity.
func (g *Generator) Vertex(c Complexity) *Program {
	id := g.nextID
	g.nextID++
	p := &Program{
		ID:   id,
		Name: fmt.Sprintf("vs_%d", id),
		Kind: VertexKind,
		Code: g.body(c, VertexKind),
	}
	if err := p.Validate(); err != nil {
		panic("shader: generator produced invalid program: " + err.Error())
	}
	return p
}

// Fragment generates a fragment shader with the given complexity.
func (g *Generator) Fragment(c Complexity) *Program {
	id := g.nextID
	g.nextID++
	p := &Program{
		ID:   id,
		Name: fmt.Sprintf("fs_%d", id),
		Kind: FragmentKind,
		Code: g.body(c, FragmentKind),
	}
	if err := p.Validate(); err != nil {
		panic("shader: generator produced invalid program: " + err.Error())
	}
	return p
}

// filterMix is the distribution of filtering modes used by generated
// fragment shaders; bilinear dominates on mobile content, trilinear shows
// up on mip-mapped 3D surfaces.
var filterMix = []FilterMode{
	FilterBilinear, FilterBilinear, FilterBilinear, FilterBilinear,
	FilterLinear, FilterLinear,
	FilterTrilinear,
	filterNearest,
}

func (g *Generator) body(c Complexity, kind Kind) []Instr {
	n := c.MinInstrs
	if c.MaxInstrs > c.MinInstrs {
		n += g.rng.Intn(c.MaxInstrs - c.MinInstrs + 1)
	}
	code := make([]Instr, 0, n+c.TexSamples+2)
	// Seed a few registers with immediates so arithmetic has varied
	// inputs regardless of caller-provided registers.
	code = append(code,
		Instr{Op: opMov, Dst: 8, SrcA: -1, Imm: g.rng.Range(0.1, 2.0)},
		Instr{Op: opMov, Dst: 9, SrcA: -1, Imm: g.rng.Range(-1.0, 1.0)},
	)
	for i := 0; i < n; i++ {
		code = append(code, g.aluInstr())
	}
	if kind == FragmentKind {
		for s := 0; s < c.TexSamples; s++ {
			samplers := c.Samplers
			if samplers < 1 {
				samplers = 1
			}
			code = append(code, Instr{
				Op:      OpTex,
				Dst:     4 + g.rng.Intn(4),
				SrcA:    g.rng.Intn(4), // u from an input register
				SrcB:    g.rng.Intn(4), // v from an input register
				Sampler: g.rng.Intn(samplers),
				Filter:  filterMix[g.rng.Intn(len(filterMix))],
			})
			// A little post-fetch math per layer.
			code = append(code, g.aluInstr())
		}
	}
	if g.rng.Float64() < c.BranchProb {
		code = append(code, Instr{
			Op:   OpIf,
			SrcA: g.rng.Intn(8),
			Body: []Instr{g.aluInstr(), g.aluInstr()},
			Else: []Instr{g.aluInstr()},
		})
	}
	if g.rng.Float64() < c.LoopProb {
		code = append(code, Instr{
			Op:    OpLoop,
			Count: 2 + g.rng.Intn(3),
			Body:  []Instr{g.aluInstr(), g.aluInstr()},
		})
	}
	return code
}

func (g *Generator) aluInstr() Instr {
	ops := []Op{opAdd, opMul, opMad, opMin, opMax, opRsq, opFrc, opSin, opMov}
	op := ops[g.rng.Intn(len(ops))]
	in := Instr{
		Op:   op,
		Dst:  4 + g.rng.Intn(numRegs-4), // keep inputs r0..r3 intact
		SrcA: g.rng.Intn(numRegs),
		SrcB: g.rng.Intn(numRegs),
	}
	if op == opMov && g.rng.Float64() < 0.3 {
		in.SrcA = -1
		in.Imm = g.rng.Range(-2, 2)
	}
	return in
}
