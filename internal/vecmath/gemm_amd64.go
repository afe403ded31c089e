package vecmath

// amd64 dispatch of the blocked BMU engine: the micro-kernels in
// gemm_amd64.s are used when the CPU reports AVX2 + FMA and the OS has
// enabled YMM state. Everything else — including the exact settle — runs
// the portable code in gemm.go, so kernel selection can never change
// results, only speed.

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

//go:noescape
func mul2x4AVX(x0, x1, w0, w1, w2, w3 *float64, n int, out *float64)

//go:noescape
func sumSquaresAVX(x *float64, n int) float64

//go:noescape
func addAVX(dst, x *float64, n int)

// useAVX gates the assembly micro-kernels. It is a variable (not a
// constant) so tests can force the portable path and assert both produce
// identical candidate blocks.
var useAVX = detectAVX()

func detectAVX() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 { // XMM and YMM state OS-enabled
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// sumSquares returns the squared Euclidean norm of v. The accumulation
// order is unspecified (SIMD when available); candidate-generation use
// only.
func sumSquares(v []float64) float64 {
	if n := len(v) &^ 3; useAVX && n > 0 {
		sum := sumSquaresAVX(&v[0], n)
		for _, x := range v[n:] {
			sum += x * x
		}
		return sum
	}
	return sumSquaresGeneric(v)
}

// addInPlace is AddInPlace's kernel: element-wise adds, exact in every
// lane, so the AVX path is bit-identical to the portable one.
func addInPlace(dst, x []float64) {
	if n := len(dst) &^ 3; useAVX && n > 0 {
		addAVX(&dst[0], &x[0], n)
		dst, x = dst[n:], x[n:]
	}
	addGeneric(dst, x)
}

// mulBatchT dispatches the records×units dot block to the AVX or the
// portable kernel.
func mulBatchT(x View, flat []float64, out []float64, n, units, dim int) {
	if !useAVX || dim < 4 {
		mulBatchGeneric(x, flat, out, n, units, dim)
		return
	}
	dim4 := dim &^ 3
	r := 0
	for ; r < n; r += 2 {
		x0 := x.Row(r)[:dim]
		x1 := x0
		o0 := out[r*units : (r+1)*units]
		o1 := o0
		if r+1 < n {
			x1 = x.Row(r + 1)[:dim]
			o1 = out[(r+1)*units : (r+2)*units]
		}
		u := 0
		var res [8]float64
		for ; u+4 <= units; u += 4 {
			w0 := flat[(u+0)*dim : (u+1)*dim]
			w1 := flat[(u+1)*dim : (u+2)*dim]
			w2 := flat[(u+2)*dim : (u+3)*dim]
			w3 := flat[(u+3)*dim : (u+4)*dim]
			mul2x4AVX(&x0[0], &x1[0], &w0[0], &w1[0], &w2[0], &w3[0], dim4, &res[0])
			for j := dim4; j < dim; j++ {
				v0, v1 := x0[j], x1[j]
				res[0] += v0 * w0[j]
				res[1] += v0 * w1[j]
				res[2] += v0 * w2[j]
				res[3] += v0 * w3[j]
				res[4] += v1 * w0[j]
				res[5] += v1 * w1[j]
				res[6] += v1 * w2[j]
				res[7] += v1 * w3[j]
			}
			o0[u], o0[u+1], o0[u+2], o0[u+3] = res[0], res[1], res[2], res[3]
			o1[u], o1[u+1], o1[u+2], o1[u+3] = res[4], res[5], res[6], res[7]
		}
		// Unit tail (1–3 rows): reuse the micro-kernel with repeated rows.
		if u < units {
			w0 := flat[u*dim : (u+1)*dim]
			w1, w2, w3 := w0, w0, w0
			if u+1 < units {
				w1 = flat[(u+1)*dim : (u+2)*dim]
			}
			if u+2 < units {
				w2 = flat[(u+2)*dim : (u+3)*dim]
			}
			mul2x4AVX(&x0[0], &x1[0], &w0[0], &w1[0], &w2[0], &w3[0], dim4, &res[0])
			for j := dim4; j < dim; j++ {
				v0, v1 := x0[j], x1[j]
				res[0] += v0 * w0[j]
				res[1] += v0 * w1[j]
				res[2] += v0 * w2[j]
				res[4] += v1 * w0[j]
				res[5] += v1 * w1[j]
				res[6] += v1 * w2[j]
			}
			for k := 0; u+k < units; k++ {
				o0[u+k] = res[k]
				o1[u+k] = res[4+k]
			}
		}
	}
}
