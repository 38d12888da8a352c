package shader

import (
	"testing"
	"testing/quick"

	"repro/internal/xmath/stats"
)

func TestFilterModeWeights(t *testing.T) {
	// These are the exact weights from Section III-B of the paper.
	cases := []struct {
		f    FilterMode
		want int
	}{
		{filterNearest, 1},
		{FilterLinear, 2},
		{FilterBilinear, 4},
		{FilterTrilinear, 8},
	}
	for _, c := range cases {
		if got := c.f.MemAccesses(); got != c.want {
			t.Errorf("%v.MemAccesses() = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestStaticCostFlat(t *testing.T) {
	p := &Program{
		ID: 1, Name: "flat", Kind: VertexKind,
		Code: []Instr{
			{Op: opAdd, Dst: 4, SrcA: 0, SrcB: 1},
			{Op: opMul, Dst: 5, SrcA: 4, SrcB: 2},
			{Op: opMov, Dst: 6, SrcA: -1, Imm: 3},
		},
	}
	c := p.StaticCost()
	if c.Instructions != 3 || c.ALUOps != 3 || c.TexSamples != 0 {
		t.Fatalf("static cost = %+v", c)
	}
}

func TestStaticCostTextureWeighting(t *testing.T) {
	p := &Program{
		ID: 2, Name: "tex", Kind: FragmentKind,
		Code: []Instr{
			{Op: opAdd, Dst: 4, SrcA: 0, SrcB: 1},
			{Op: OpTex, Dst: 5, SrcA: 0, SrcB: 1, Filter: FilterBilinear},
			{Op: OpTex, Dst: 6, SrcA: 2, SrcB: 3, Filter: FilterTrilinear},
		},
	}
	c := p.StaticCost()
	if c.Instructions != 3 || c.TexSamples != 2 || c.TexMemAccesses != 12 {
		t.Fatalf("static cost = %+v", c)
	}
}

func TestDynamicCostBothBranchPathsCharged(t *testing.T) {
	p := &Program{
		ID: 3, Name: "branchy", Kind: FragmentKind,
		Code: []Instr{
			{Op: OpIf, SrcA: 0,
				Body: []Instr{{Op: opAdd, Dst: 4, SrcA: 0, SrcB: 1}, {Op: opAdd, Dst: 5, SrcA: 0, SrcB: 1}},
				Else: []Instr{{Op: opMul, Dst: 6, SrcA: 0, SrcB: 1}},
			},
		},
	}
	d := p.DynamicCost()
	// 1 branch + 2 then-path + 1 else-path = 4 (lock-step warps run both).
	if d.Instructions != 4 || d.ALUOps != 3 {
		t.Fatalf("dynamic cost = %+v, want 4 instrs / 3 ALU", d)
	}
	// Functional execution takes only one side.
	res := p.Exec(Regs{1 /* r0 > 0: then */}, nil)
	if res.Cost.Instructions != 3 {
		t.Fatalf("exec taken-path instrs = %d, want 3", res.Cost.Instructions)
	}
	res = p.Exec(Regs{-1}, nil)
	if res.Cost.Instructions != 2 {
		t.Fatalf("exec else-path instrs = %d, want 2", res.Cost.Instructions)
	}
}

func TestDynamicCostLoopMultiplies(t *testing.T) {
	p := &Program{
		ID: 4, Name: "loopy", Kind: VertexKind,
		Code: []Instr{
			{Op: OpLoop, Count: 5, Body: []Instr{
				{Op: opAdd, Dst: 4, SrcA: 4, SrcB: 8},
				{Op: opMul, Dst: 5, SrcA: 5, SrcB: 8},
			}},
		},
	}
	d := p.DynamicCost()
	if d.Instructions != 1+5*2 {
		t.Fatalf("dynamic instrs = %d, want 11", d.Instructions)
	}
	if d.ALUOps != 10 {
		t.Fatalf("dynamic ALU = %d, want 10", d.ALUOps)
	}
}

func TestExecArithmetic(t *testing.T) {
	p := &Program{
		ID: 5, Name: "arith", Kind: VertexKind,
		Code: []Instr{
			{Op: opMov, Dst: 4, SrcA: -1, Imm: 10},
			{Op: opAdd, Dst: 5, SrcA: 4, SrcB: 0}, // r5 = 10 + r0
			{Op: opMul, Dst: 6, SrcA: 5, SrcB: 1}, // r6 = r5 * r1
			{Op: opMad, Dst: 6, SrcA: 4, SrcB: 0}, // r6 += 10*r0
			{Op: opMin, Dst: 7, SrcA: 6, SrcB: 4}, // r7 = min(r6, 10)
			{Op: opMax, Dst: 8, SrcA: 6, SrcB: 4}, // r8 = max(r6, 10)
		},
	}
	res := p.Exec(Regs{2, 3}, nil) // r0=2 r1=3
	if res.Regs[5] != 12 {
		t.Fatalf("r5 = %v, want 12", res.Regs[5])
	}
	if res.Regs[6] != 12*3+20 {
		t.Fatalf("r6 = %v, want 56", res.Regs[6])
	}
	if res.Regs[7] != 10 || res.Regs[8] != 56 {
		t.Fatalf("min/max = %v/%v, want 10/56", res.Regs[7], res.Regs[8])
	}
}

func TestExecRsqZero(t *testing.T) {
	p := &Program{
		ID: 6, Name: "rsq", Kind: VertexKind,
		Code: []Instr{{Op: opRsq, Dst: 4, SrcA: 0}},
	}
	res := p.Exec(Regs{}, nil)
	if res.Regs[4] != 0 {
		t.Fatalf("rsq(0) = %v, want 0 (no NaN)", res.Regs[4])
	}
	res = p.Exec(Regs{4}, nil)
	if res.Regs[4] != 0.5 {
		t.Fatalf("rsq(4) = %v, want 0.5", res.Regs[4])
	}
}

func TestExecTextureTrace(t *testing.T) {
	p := &Program{
		ID: 7, Name: "textrace", Kind: FragmentKind,
		Code: []Instr{
			{Op: OpTex, Dst: 4, SrcA: 0, SrcB: 1, Sampler: 2, Filter: FilterTrilinear},
		},
	}
	sampled := false
	s := samplerFunc(func(unit int, u, v float64, f FilterMode) float64 {
		sampled = true
		if unit != 2 || u != 0.25 || v != 0.75 || f != FilterTrilinear {
			t.Errorf("sampler got unit=%d u=%v v=%v f=%v", unit, u, v, f)
		}
		return 42
	})
	res := p.Exec(Regs{0.25, 0.75}, s)
	if !sampled {
		t.Fatal("sampler never invoked")
	}
	if res.Regs[4] != 42 {
		t.Fatalf("tex result = %v, want 42", res.Regs[4])
	}
	if len(res.Tex) != 1 || res.Tex[0].Sampler != 2 {
		t.Fatalf("trace = %+v", res.Tex)
	}
	if res.Cost.TexMemAccesses != 8 {
		t.Fatalf("tex mem accesses = %d, want 8", res.Cost.TexMemAccesses)
	}
}

func TestExecNilSampler(t *testing.T) {
	p := &Program{
		ID: 8, Name: "niltex", Kind: FragmentKind,
		Code: []Instr{{Op: OpTex, Dst: 4, SrcA: 0, SrcB: 1, Filter: FilterLinear}},
	}
	res := p.Exec(Regs{1, 1}, nil)
	if res.Regs[4] != 0 {
		t.Fatalf("nil sampler result = %v, want 0", res.Regs[4])
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
	}{
		{"empty", &Program{ID: 1, Name: "e", Code: nil}},
		{"no name", &Program{ID: 1, Code: []Instr{{Op: opMov, Dst: 4, SrcA: -1}}}},
		{"bad dst", &Program{ID: 1, Name: "d", Code: []Instr{{Op: opMov, Dst: 99, SrcA: -1}}}},
		{"bad src", &Program{ID: 1, Name: "s", Code: []Instr{{Op: opAdd, Dst: 4, SrcA: 20, SrcB: 0}}}},
		{"zero loop", &Program{ID: 1, Name: "l", Code: []Instr{{Op: OpLoop, Count: 0, Body: []Instr{{Op: opMov, Dst: 4, SrcA: -1}}}}}},
		{"empty if", &Program{ID: 1, Name: "i", Code: []Instr{{Op: OpIf, SrcA: 0}}}},
		{"bad sampler", &Program{ID: 1, Name: "t", Code: []Instr{{Op: OpTex, Dst: 4, SrcA: 0, SrcB: 1, Sampler: 9}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid program", c.name)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(stats.NewRNG(99))
	b := NewGenerator(stats.NewRNG(99))
	for i := 0; i < 20; i++ {
		pa := a.Fragment(ComplexFragment)
		pb := b.Fragment(ComplexFragment)
		if pa.StaticCost() != pb.StaticCost() {
			t.Fatalf("program %d differs across identical seeds", i)
		}
	}
}

func TestGeneratorProgramsValid(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewGenerator(stats.NewRNG(seed))
		for _, c := range []Complexity{SimpleVertex, ComplexVertex, SimpleFragment, ComplexFragment} {
			var p *Program
			if c.TexSamples > 0 {
				p = g.Fragment(c)
			} else {
				p = g.Vertex(c)
			}
			if p.Validate() != nil {
				return false
			}
			// Dynamic cost always >= static ALU portion must hold, and
			// execution must not produce runaway instruction counts.
			res := p.Exec(Regs{0.5, 0.5, 0.5, 0.5}, constSampler(1))
			if res.Cost.Instructions <= 0 || res.Cost.Instructions > 10000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorFragmentHasTextures(t *testing.T) {
	g := NewGenerator(stats.NewRNG(7))
	p := g.Fragment(ComplexFragment)
	c := p.StaticCost()
	if c.TexSamples != ComplexFragment.TexSamples {
		t.Fatalf("tex samples = %d, want %d", c.TexSamples, ComplexFragment.TexSamples)
	}
	v := g.Vertex(ComplexVertex)
	if v.StaticCost().TexSamples != 0 {
		t.Fatal("vertex shaders must not sample textures")
	}
}

func TestGeneratorIDsUnique(t *testing.T) {
	g := NewGenerator(stats.NewRNG(1))
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		p := g.Vertex(SimpleVertex)
		if seen[p.ID] {
			t.Fatalf("duplicate program ID %d", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestCostAddScale(t *testing.T) {
	a := Cost{Instructions: 10, ALUOps: 7, TexSamples: 2, TexMemAccesses: 8}
	b := a
	b.add(a)
	if b.Instructions != 20 || b.TexMemAccesses != 16 {
		t.Fatalf("Add = %+v", b)
	}
	s := a.scale(3)
	if s.Instructions != 30 || s.ALUOps != 21 || s.TexSamples != 6 || s.TexMemAccesses != 24 {
		t.Fatalf("Scale = %+v", s)
	}
}

func TestKindAndOpStrings(t *testing.T) {
	if VertexKind.String() != "vertex" || FragmentKind.String() != "fragment" {
		t.Fatal("Kind.String wrong")
	}
	if OpTex.String() != "tex" || opMad.String() != "mad" {
		t.Fatal("Op.String wrong")
	}
	if FilterBilinear.String() != "bilinear" {
		t.Fatal("FilterMode.String wrong")
	}
}
