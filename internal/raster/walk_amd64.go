package raster

// haveWalkKernels reports whether appendTri and countTri are the
// assembly triangle kernels.
const haveWalkKernels = true

// appendTri runs AppendQuads' walk of every quad row of s in SSE2
// (walk_amd64.s), storing quads into b's arrays from index n, and
// returns the new quad count. The caller has extended the arrays to
// the bounding box's worst case, so the kernel stores by index.
//
//go:noescape
func appendTri(s *triSetup, b *QuadBatch, n int) int

// countTri runs CountTriangle's walk of the first rows quad rows of s
// in SSE2 (walk_amd64.s) and returns the number of surviving samples.
// z is the depth buffer from the first row's first quad (row s.y0,
// column s.x0) and w the buffer's width. The caller guarantees that
// every quad's right column and every bottom sample row of those rows
// lie inside the buffer.
//
//go:noescape
func countTri(s *triSetup, z []float32, w, rows int, blend bool) uint64
