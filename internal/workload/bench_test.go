package workload

import "testing"

// BenchmarkGenerate times building one full-length trace (pvz at
// DefaultScale: 5000 frames), the cost every campaign pays before its
// first phase. allocs/op counts the per-frame exact-size copies.
func BenchmarkGenerate(b *testing.B) {
	p := Profiles["pvz"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p, DefaultScale); err != nil {
			b.Fatal(err)
		}
	}
}
