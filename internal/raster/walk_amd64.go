package raster

// haveWalkKernels reports whether appendTri and countTri, the AVX
// triangle kernels, run on this CPU; it is decided once, at package
// init. Without them, AppendQuads and CountTriangle run their Go walks.
var haveWalkKernels = cpuHasWalkKernels()

// cpuHasWalkKernels reports whether the CPU and the OS support the
// kernels' instructions: AVX with the YMM state saved by the OS
// (CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1 and 2) and POPCNT
// (CPUID.1:ECX bit 23). XGETBV is run only once OSXSAVE says it exists.
func cpuHasWalkKernels() bool {
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	const xmm, ymm = 1 << 1, 1 << 2
	return xgetbv0()&(xmm|ymm) == xmm|ymm
}

// cpuid1ECX returns ECX of CPUID leaf 1 (walk_amd64.s).
func cpuid1ECX() uint32

// xgetbv0 returns the low half of XCR0 (walk_amd64.s).
func xgetbv0() uint32

// appendTri runs AppendQuads' walk of every quad row of s in AVX
// (walk_amd64.s), storing quads into b's arrays from index n, and
// returns the new quad count. The caller has extended the arrays to
// the bounding box's worst case, so the kernel stores by index.
//
//go:noescape
func appendTri(s *triSetup, b *QuadBatch, n int) int

// countTri runs CountTriangle's walk of the first rows quad rows of s
// in AVX (walk_amd64.s) and returns the number of surviving samples.
// z is the depth buffer from the first row's first quad (row s.y0,
// column s.x0) and w the buffer's width. The caller guarantees that
// every quad's right column and every bottom sample row of those rows
// lie inside the buffer.
//
//go:noescape
func countTri(s *triSetup, z []float32, w, rows int, blend bool) uint64
