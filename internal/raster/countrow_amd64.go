package raster

// haveCountRow reports whether countRow is the assembly row kernel.
const haveCountRow = true

// countRow runs CountTriangle's quad loop over one whole quad row in
// SSE2 (countrow_amd64.s) and returns the number of surviving samples.
// top and bot are the depth-buffer spans of the row's two sample rows,
// from the first quad's left column to the last quad's right column;
// their length is twice the number of quads. The caller guarantees
// that both sample rows lie inside the clip and the buffer.
//
//go:noescape
func countRow(k *rowConsts, top, bot []float32) uint64
