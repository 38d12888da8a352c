package shader

import (
	"testing"

	"repro/internal/xmath/stats"
)

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
