package shader

import "math"

// This file is a reference interpreter for the ISA. Characterization
// only counts shader invocations and weights them by static cost, so no
// campaign executes a program; the interpreter stays as the tests'
// oracle that the ISA means what the cost models charge for (the
// taken path never costs more than DynamicCost) and that any program
// Validate accepts runs safely.

// Sampler provides texel values to the executor; tests pass simple
// closures.
type Sampler interface {
	// Sample returns the filtered texel value of texture unit at (u, v).
	Sample(unit int, u, v float64, filter FilterMode) float64
}

// samplerFunc adapts a function to the Sampler interface.
type samplerFunc func(unit int, u, v float64, filter FilterMode) float64

// Sample calls f.
func (f samplerFunc) Sample(unit int, u, v float64, filter FilterMode) float64 {
	return f(unit, u, v, filter)
}

// constSampler returns v for every sample.
func constSampler(v float64) Sampler {
	return samplerFunc(func(int, float64, float64, FilterMode) float64 { return v })
}

// Regs is a shader register file.
type Regs [numRegs]float64

// traceEvent records one texture access performed during execution.
type traceEvent struct {
	Sampler int
	U, V    float64
	Filter  FilterMode
}

// ExecResult is the outcome of one functional shader invocation.
type ExecResult struct {
	Regs Regs // final register file
	Cost Cost // instructions actually executed (taken path only)
	Tex  []traceEvent
}

// Exec functionally executes the program over the given initial register
// file. Unlike DynamicCost, Exec follows the *taken* side of branches —
// it computes real values and the texture access stream. The simulators
// charge DynamicCost (lock-step warps execute both paths), which bounds
// the cost Exec reports.
//
// A nil sampler behaves as constSampler(0).
func (p *Program) Exec(in Regs, sampler Sampler) ExecResult {
	if sampler == nil {
		sampler = constSampler(0)
	}
	res := ExecResult{Regs: in}
	execBlock(p.Code, &res, sampler, 0)
	return res
}

// maxExecInstrs bounds runaway programs (defence in depth; Validate
// already bounds nesting and loop counts are static).
const maxExecInstrs = 1 << 20

func execBlock(code []Instr, res *ExecResult, sampler Sampler, depth int) {
	for i := range code {
		if res.Cost.Instructions >= maxExecInstrs {
			return
		}
		in := &code[i]
		res.Cost.Instructions++
		switch in.Op {
		case opMov:
			if in.SrcA < 0 {
				res.Regs[in.Dst] = in.Imm
			} else {
				res.Regs[in.Dst] = res.Regs[in.SrcA]
			}
			res.Cost.ALUOps++
		case opAdd:
			res.Regs[in.Dst] = res.Regs[in.SrcA] + res.Regs[in.SrcB]
			res.Cost.ALUOps++
		case opMul:
			res.Regs[in.Dst] = res.Regs[in.SrcA] * res.Regs[in.SrcB]
			res.Cost.ALUOps++
		case opMad:
			res.Regs[in.Dst] = res.Regs[in.SrcA]*res.Regs[in.SrcB] + res.Regs[in.Dst]
			res.Cost.ALUOps++
		case opMin:
			res.Regs[in.Dst] = math.Min(res.Regs[in.SrcA], res.Regs[in.SrcB])
			res.Cost.ALUOps++
		case opMax:
			res.Regs[in.Dst] = math.Max(res.Regs[in.SrcA], res.Regs[in.SrcB])
			res.Cost.ALUOps++
		case opRsq:
			v := math.Abs(res.Regs[in.SrcA])
			if v == 0 {
				res.Regs[in.Dst] = 0
			} else {
				res.Regs[in.Dst] = 1 / math.Sqrt(v)
			}
			res.Cost.ALUOps++
		case opFrc:
			v := res.Regs[in.SrcA]
			res.Regs[in.Dst] = v - math.Floor(v)
			res.Cost.ALUOps++
		case opSin:
			res.Regs[in.Dst] = math.Sin(res.Regs[in.SrcA])
			res.Cost.ALUOps++
		case OpTex:
			u, v := res.Regs[in.SrcA], res.Regs[in.SrcB]
			res.Regs[in.Dst] = sampler.Sample(in.Sampler, u, v, in.Filter)
			res.Cost.TexSamples++
			res.Cost.TexMemAccesses += in.Filter.MemAccesses()
			res.Tex = append(res.Tex, traceEvent{Sampler: in.Sampler, U: u, V: v, Filter: in.Filter})
		case OpIf:
			if res.Regs[in.SrcA] > 0 {
				execBlock(in.Body, res, sampler, depth+1)
			} else {
				execBlock(in.Else, res, sampler, depth+1)
			}
		case OpLoop:
			for n := 0; n < in.Count; n++ {
				execBlock(in.Body, res, sampler, depth+1)
				if res.Cost.Instructions >= maxExecInstrs {
					return
				}
			}
		}
	}
}
