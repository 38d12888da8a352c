//go:build !amd64

package raster

// haveWalkKernels reports whether appendTri and countTri are the
// assembly triangle kernels. Without them, AppendQuads and
// CountDraw run their Go walks.
const haveWalkKernels = false

func appendTri(s *triSetup, b *QuadBatch, n int) int {
	panic("raster: no triangle kernel on this architecture")
}

func countTri(s *triSetup, z []float32, w, rows int, blend bool) uint64 {
	panic("raster: no triangle kernel on this architecture")
}
