// Package shader defines the small shader ISA used by the graphics
// pipeline simulators: programs made of ALU, texture and structured
// control-flow instructions, a functional executor, and the static and
// dynamic cost models MEGsim consumes.
//
// Two properties from the paper drive the design:
//
//   - A shader is characterized by its *number of instructions*; the
//     per-frame vector of characteristics multiplies each shader's
//     execution count by that instruction count (Section III-B).
//   - Texture accesses are weighted by the number of memory accesses their
//     filtering mode generates: linear 2, bilinear 4, trilinear 8.
//   - Control-flow divergence is not critical on GPUs because warps run in
//     lock-step and both paths of a branch normally execute (Section I);
//     the dynamic cost model therefore charges both sides of every IF.
package shader

import "fmt"

// Kind distinguishes the two shader types of the pipeline.
type Kind int

const (
	// VertexKind shaders run in the Geometry Pipeline, one invocation
	// per vertex.
	VertexKind Kind = iota
	// FragmentKind shaders run in the Raster Pipeline, one invocation
	// per visible fragment.
	FragmentKind
)

// String returns "vertex" or "fragment".
func (k Kind) String() string {
	switch k {
	case VertexKind:
		return "vertex"
	case FragmentKind:
		return "fragment"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FilterMode is the texture filtering mode of a TEX instruction.
type FilterMode int

const (
	// filterNearest samples a single texel.
	filterNearest FilterMode = iota
	// FilterLinear performs 2 memory accesses (paper weight 2).
	FilterLinear
	// FilterBilinear performs 4 memory accesses (paper weight 4).
	FilterBilinear
	// FilterTrilinear performs 8 memory accesses (paper weight 8).
	FilterTrilinear
)

// MemAccesses returns the number of memory accesses one texture sample
// with this filter mode generates. These are exactly the weights of
// Section III-B.
func (f FilterMode) MemAccesses() int {
	switch f {
	case filterNearest:
		return 1
	case FilterLinear:
		return 2
	case FilterBilinear:
		return 4
	case FilterTrilinear:
		return 8
	default:
		panic(fmt.Sprintf("shader: unknown filter mode %d", int(f)))
	}
}

// String names the filter mode.
func (f FilterMode) String() string {
	switch f {
	case filterNearest:
		return "nearest"
	case FilterLinear:
		return "linear"
	case FilterBilinear:
		return "bilinear"
	case FilterTrilinear:
		return "trilinear"
	default:
		return fmt.Sprintf("FilterMode(%d)", int(f))
	}
}

// Op is a shader instruction opcode.
type Op int

const (
	// opMov copies SrcA (or Imm when SrcA < 0) to Dst.
	opMov Op = iota
	// opAdd computes Dst = SrcA + SrcB.
	opAdd
	// opMul computes Dst = SrcA * SrcB.
	opMul
	// opMad computes Dst = SrcA * SrcB + Dst (multiply-accumulate).
	opMad
	// opMin computes Dst = min(SrcA, SrcB).
	opMin
	// opMax computes Dst = max(SrcA, SrcB).
	opMax
	// opRsq computes Dst = 1/sqrt(|SrcA|) (0 yields 0).
	opRsq
	// opFrc computes Dst = SrcA - floor(SrcA).
	opFrc
	// opSin computes Dst = sin(SrcA).
	opSin
	// OpTex samples texture Sampler at coordinates (SrcA, SrcB) with
	// Filter, writing the sampled value to Dst.
	OpTex
	// OpIf executes Body when SrcA > 0 and Else otherwise. The dynamic
	// cost model charges both sides (lock-step warps).
	OpIf
	// OpLoop executes Body Count times.
	OpLoop
)

// String names the opcode.
func (o Op) String() string {
	names := [...]string{"mov", "add", "mul", "mad", "min", "max", "rsq", "frc", "sin", "tex", "if", "loop"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// numRegs is the size of the register file available to a shader
// invocation. Inputs are pre-loaded into low registers by the caller.
const numRegs = 16

// Instr is a single shader instruction. Control-flow instructions (OpIf,
// OpLoop) carry nested bodies; all others are flat register operations.
type Instr struct {
	Op      Op
	Dst     int        // destination register
	SrcA    int        // first source register (-1 = use Imm)
	SrcB    int        // second source register
	Imm     float64    // immediate operand for opMov with SrcA < 0
	Sampler int        // texture unit, OpTex only
	Filter  FilterMode // filtering mode, OpTex only
	Count   int        // trip count, OpLoop only
	Body    []Instr    // OpIf taken-path / OpLoop body
	Else    []Instr    // OpIf not-taken path
}

// Program is a complete shader.
type Program struct {
	ID   int    // unique within a workload; indexes VSCV/FSCV slots
	Name string // human-readable, e.g. "vs_skinning_2"
	Kind Kind
	Code []Instr
}

// Cost summarizes the execution cost of a program. Static and dynamic
// variants are both expressed with this type.
type Cost struct {
	// Instructions is the total instruction count. Control-flow
	// instructions count themselves once plus their bodies.
	Instructions int
	// ALUOps is the number of non-texture, non-control instructions.
	ALUOps int
	// TexSamples is the number of TEX instructions.
	TexSamples int
	// TexMemAccesses is the number of texture memory accesses after
	// applying the filter-mode weights (2/4/8).
	TexMemAccesses int
}

// add accumulates o into c.
func (c *Cost) add(o Cost) {
	c.Instructions += o.Instructions
	c.ALUOps += o.ALUOps
	c.TexSamples += o.TexSamples
	c.TexMemAccesses += o.TexMemAccesses
}

// scale returns c with every field multiplied by n.
func (c Cost) scale(n int) Cost {
	return Cost{
		Instructions:   c.Instructions * n,
		ALUOps:         c.ALUOps * n,
		TexSamples:     c.TexSamples * n,
		TexMemAccesses: c.TexMemAccesses * n,
	}
}

// StaticCost returns the static cost of the program: every instruction in
// the listing counted exactly once regardless of control flow. This is
// "the number of instructions in that shader" used to weight execution
// counts in the vector of characteristics.
func (p *Program) StaticCost() Cost {
	return staticCost(p.Code)
}

func staticCost(code []Instr) Cost {
	var c Cost
	for i := range code {
		in := &code[i]
		c.Instructions++
		switch in.Op {
		case OpTex:
			c.TexSamples++
			c.TexMemAccesses += in.Filter.MemAccesses()
		case OpIf:
			c.add(staticCost(in.Body))
			c.add(staticCost(in.Else))
		case OpLoop:
			c.add(staticCost(in.Body))
		default:
			c.ALUOps++
		}
	}
	return c
}

// DynamicCost returns the per-invocation dynamic cost of the program under
// the lock-step warp model: both sides of every IF execute, and loop
// bodies execute Count times. This is what one shader invocation charges
// the programmable processors and the texture caches in the timing
// simulator.
func (p *Program) DynamicCost() Cost {
	return dynamicCost(p.Code)
}

func dynamicCost(code []Instr) Cost {
	var c Cost
	for i := range code {
		in := &code[i]
		switch in.Op {
		case OpTex:
			c.Instructions++
			c.TexSamples++
			c.TexMemAccesses += in.Filter.MemAccesses()
		case OpIf:
			c.Instructions++ // the branch itself
			c.add(dynamicCost(in.Body))
			c.add(dynamicCost(in.Else))
		case OpLoop:
			c.Instructions++ // loop setup
			body := dynamicCost(in.Body)
			c.add(body.scale(max(in.Count, 0)))
		default:
			c.Instructions++
			c.ALUOps++
		}
	}
	return c
}

// Validate checks structural invariants: register indices in range,
// positive loop counts, and non-nil bodies for control flow. It returns a
// descriptive error for the first violation found.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("shader: program %d has empty name", p.ID)
	}
	if len(p.Code) == 0 {
		return fmt.Errorf("shader %q: empty program", p.Name)
	}
	return p.validate(p.Code, 0)
}

func (p *Program) validate(code []Instr, depth int) error {
	if depth > 8 {
		return fmt.Errorf("shader %q: control flow nested deeper than 8", p.Name)
	}
	for i := range code {
		in := &code[i]
		if in.Dst < 0 || in.Dst >= numRegs {
			return fmt.Errorf("shader %q: instr %d (%v) dst register %d out of range", p.Name, i, in.Op, in.Dst)
		}
		// SrcA == -1 selects the immediate operand, which only opMov
		// consumes; every other opcode reads SrcA as a register index.
		minSrcA := 0
		if in.Op == opMov {
			minSrcA = -1
		}
		if in.SrcA < minSrcA || in.SrcA >= numRegs || in.SrcB < 0 || in.SrcB >= numRegs {
			return fmt.Errorf("shader %q: instr %d (%v) src registers (%d,%d) out of range", p.Name, i, in.Op, in.SrcA, in.SrcB)
		}
		switch in.Op {
		case OpLoop:
			if in.Count <= 0 {
				return fmt.Errorf("shader %q: instr %d loop count %d must be positive", p.Name, i, in.Count)
			}
			if len(in.Body) == 0 {
				return fmt.Errorf("shader %q: instr %d loop with empty body", p.Name, i)
			}
			if err := p.validate(in.Body, depth+1); err != nil {
				return err
			}
		case OpIf:
			if len(in.Body) == 0 {
				return fmt.Errorf("shader %q: instr %d if with empty body", p.Name, i)
			}
			if err := p.validate(in.Body, depth+1); err != nil {
				return err
			}
			if err := p.validate(in.Else, depth+1); err != nil {
				return err
			}
		case OpTex:
			if in.Sampler < 0 || in.Sampler >= 8 {
				return fmt.Errorf("shader %q: instr %d sampler %d out of range", p.Name, i, in.Sampler)
			}
		}
	}
	return nil
}
