//go:build !amd64

package vecmath

// Portable fallbacks for platforms without the assembly micro-kernels.

// useAVX is always false off amd64; the portable kernels run everywhere.
var useAVX = false

func sumSquares(v []float64) float64 { return sumSquaresGeneric(v) }

func addInPlace(dst, x []float64) { addGeneric(dst, x) }

func axpyInPlace(dst []float64, alpha float64, x []float64) { axpyGeneric(dst, alpha, x) }

func scoreSparse(cb *Codebook, cols []int32, vals []float64, xn float64, d []float64) (float64, float64, int) {
	return scoreSparseGeneric(cb, cols, vals, xn, d)
}

func mulBatchT(x View, flat []float64, out []float64, n, units, dim int) {
	mulBatchGeneric(x, flat, out, n, units, dim)
}
