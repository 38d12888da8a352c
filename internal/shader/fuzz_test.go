package shader

import (
	"math"
	"testing"

	"repro/internal/xmath/stats"
)

// FuzzGeneratedProgramExec drives generated programs with arbitrary
// inputs: execution must never panic, produce bounded instruction
// counts, and the taken-path cost can never exceed the lock-step
// dynamic cost.
func FuzzGeneratedProgramExec(f *testing.F) {
	f.Add(uint64(1), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(42), 1.5, -2.5, 1e10, -1e-10)
	f.Add(uint64(99), -1.0, 0.5, 3.14, 2.71)
	// Non-finite and extreme inputs: execution must stay panic-free when
	// registers carry infinities, NaNs, extremes and denormals.
	f.Add(uint64(3), math.Inf(1), math.Inf(-1), math.NaN(), 0.0)
	f.Add(uint64(1234567), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0)
	f.Add(uint64(0), math.NaN(), math.NaN(), math.NaN(), math.NaN())
	f.Add(^uint64(0), 1e-300, -1e300, 5e-324, math.Pi)
	f.Fuzz(func(t *testing.T, seed uint64, r0, r1, r2, r3 float64) {
		g := NewGenerator(stats.NewRNG(seed))
		for _, p := range []*Program{
			g.Vertex(ComplexVertex),
			g.Fragment(ComplexFragment),
		} {
			res := p.Exec(Regs{r0, r1, r2, r3}, constSampler(0.5))
			dyn := p.DynamicCost()
			if res.Cost.Instructions > dyn.Instructions {
				t.Fatalf("taken-path instrs %d exceed dynamic bound %d",
					res.Cost.Instructions, dyn.Instructions)
			}
			if res.Cost.TexMemAccesses > dyn.TexMemAccesses {
				t.Fatalf("taken-path tex accesses %d exceed dynamic bound %d",
					res.Cost.TexMemAccesses, dyn.TexMemAccesses)
			}
		}
	})
}

// FuzzValidateArbitraryPrograms builds structurally arbitrary programs
// from fuzz input; Validate must classify them without panicking, and
// programs it accepts must execute safely.
func FuzzValidateArbitraryPrograms(f *testing.F) {
	f.Add(uint64(7), 5, 4, 0, 0)
	f.Add(uint64(9), 20, 99, -3, 12)
	// Boundary cases: zero-length request (clamped to 1), int extremes
	// on every operand index, max seed, and negative-heavy registers.
	f.Add(uint64(0), 0, 0, 0, 0)
	f.Add(^uint64(0), math.MaxInt, math.MaxInt, math.MinInt, math.MinInt)
	f.Add(uint64(13), math.MinInt, -1, -31, -32)
	f.Add(uint64(255), 32, 31, 30, 29)
	f.Fuzz(func(t *testing.T, seed uint64, n, dst, srcA, srcB int) {
		rng := stats.NewRNG(seed)
		if n < 0 {
			n = -n
		}
		n = n%32 + 1
		code := make([]Instr, 0, n)
		for i := 0; i < n; i++ {
			in := Instr{
				Op:   Op(rng.Intn(12)),
				Dst:  (dst + i) % 32,
				SrcA: (srcA + i) % 32,
				SrcB: (srcB + i) % 32,
			}
			switch in.Op {
			case OpLoop:
				in.Count = rng.Intn(4)
				if rng.Float64() < 0.7 {
					in.Body = []Instr{{Op: opAdd, Dst: 4, SrcA: 0, SrcB: 1}}
				}
			case OpIf:
				if rng.Float64() < 0.7 {
					in.Body = []Instr{{Op: opAdd, Dst: 4, SrcA: 0, SrcB: 1}}
				}
			case OpTex:
				in.Sampler = rng.Intn(12) - 2
			}
			code = append(code, in)
		}
		p := &Program{ID: 1, Name: "fuzz", Kind: FragmentKind, Code: code}
		if err := p.Validate(); err != nil {
			return // rejected is fine
		}
		// Accepted programs must execute without panicking.
		p.Exec(Regs{1, 2, 3, 4}, constSampler(1))
	})
}
