package workload

import (
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/gltrace"
)

// BenchmarkGenerate times building one full-length trace (pvz at
// DefaultScale: 5000 frames), the cost every campaign pays before its
// first phase. allocs/op counts the per-frame exact-size copies. It
// reports the trace's work as commands/op (commands over all frames)
// and trace-bytes/op (the bytes of the per-frame command and transform
// slices), both exact on any host.
func BenchmarkGenerate(b *testing.B) {
	p := Profiles["pvz"]
	b.ReportAllocs()
	var tr *gltrace.Trace
	for i := 0; i < b.N; i++ {
		var err error
		if tr, err = Generate(p, DefaultScale); err != nil {
			b.Fatal(err)
		}
	}
	commands, mvps := 0, 0
	for _, f := range tr.Frames {
		commands += len(f.Commands)
		mvps += len(f.MVPs)
	}
	b.ReportMetric(float64(commands), "commands/op")
	b.ReportMetric(float64(commands*int(unsafe.Sizeof(gltrace.Command{}))+mvps*int(unsafe.Sizeof(geom.Mat4{}))), "trace-bytes/op")
}
