//go:build !amd64

package raster

// haveCountRow reports whether countRow is the assembly row kernel.
// Without one, every row runs CountTriangle's Go loop.
const haveCountRow = false

func countRow(k *rowConsts, top, bot []float32) uint64 {
	panic("raster: no row kernel on this architecture")
}
