package shader

import (
	"testing"

	"repro/internal/xmath/stats"
)

func BenchmarkExecComplexFragment(b *testing.B) {
	g := NewGenerator(stats.NewRNG(5))
	p := g.Fragment(ComplexFragment)
	s := constSampler(0.5)
	in := Regs{0.3, 0.7, 0.1, 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Exec(in, s)
	}
}

func BenchmarkDynamicCost(b *testing.B) {
	g := NewGenerator(stats.NewRNG(7))
	p := g.Vertex(ComplexVertex)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DynamicCost()
	}
}

func BenchmarkGenerator(b *testing.B) {
	g := NewGenerator(stats.NewRNG(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Fragment(ComplexFragment)
	}
}
