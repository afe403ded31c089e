package vecmath

import "math"

// This file holds the expanded-form machinery of BMU search, built on
// the identity
//
//	‖x−w‖² = ‖x‖² + ‖w‖² − 2·x·w
//
// MulBatchT computes the records×units dot-product block x·w — a
// register-blocked matrix product over a record view and a flat weight
// arena — for the compiled routing descent; the training engine
// (BMUScratch.ArgMinDistanceBatch in bmu.go) scores the same identity
// from each record's nonzero entries against a transposed weight block.
//
// Exactness: the expanded form reassociates the arithmetic, so its values
// carry different rounding than the canonical scalar kernel
// (SquaredDistanceFlat). It is therefore used only as a CANDIDATE
// GENERATOR — every unit whose expanded distance lies within a small
// safety margin of the expanded minimum is settled with the exact
// canonical kernel, and the settled winner (lowest index on exact ties)
// is returned. Records whose magnitudes could overflow or cancel beyond
// the margin's error model fall back to the scalar scan wholesale. The
// result — index and squared distance — is bit-for-bit identical to
// ArgMinDistance on every input; see TestArgMinDistanceBatchMatchesScalar
// and FuzzArgMinDistanceBatch.
//
// The micro-kernel inside MulBatchT processes 4 record rows × 2 weight
// rows per accumulator group (8 independent accumulator chains: enough to
// saturate two FMA ports at 4-cycle add latency, while the 14 live values
// still fit the register file); each loaded record value is reused
// across 2 weight rows and each weight value across 4 records.

// gemmMinBlock is the smallest units×dim codebook the expanded-form
// engine engages for; below it (a handful of very short rows) the
// per-record scalar scan wins and ArgMinDistanceBatch simply runs it.
const gemmMinBlock = 128

// ExpandSettleRel is the relative settle margin of the expanded-form BMU
// search: every unit whose expanded-form distance is within
// ExpandSettleRel·(‖x‖²+max‖w‖²) of the expanded minimum is re-judged
// with the exact canonical kernel. The true floating-point discrepancy
// between the expanded and canonical forms is bounded by
// ~(dim+3)·ε·(‖x‖²+‖w‖²) with ε = 2⁻⁵³ for ANY order of summation of the
// dot product — below 1e-10 relative for any dim under ~10⁵ — so the
// 1e-9 margin only ever admits extra candidates (which the exact settle
// then judges); it can never exclude the true winner. Dropping the
// x_j = ±0 terms of the dot product (the sparse scores) is one such
// order: those products are ±0 for finite weights, and non-finite
// weights make the unit's norm non-finite, which voids the fast path.
const ExpandSettleRel = 1e-9

// overflowGuard is the magnitude ceiling of the expanded-form fast path:
// when ‖x‖²+max‖w‖² is not comfortably below MaxFloat64, intermediate
// products could overflow to ±Inf (and their difference to NaN), breaking
// the candidate generator's error model. Such records take the scalar
// scan instead.
const overflowGuard = math.MaxFloat64 / 4

// ExpandGuardOK reports whether a record with squared norm xn searched
// against weights whose squared norms top out at maxNorm2 fits the
// expanded-form error model: magnitudes small enough that no
// intermediate term can overflow and the settle margin covers the
// floating-point discrepancy. Callers embedding the expanded form
// directly (the compiled routing descent) must fall back to their scalar
// kernel when this is false — the comparison is written so NaN fails it.
func ExpandGuardOK(xn, maxNorm2 float64) bool { return xn+maxNorm2 < overflowGuard }

// SumSquares returns ‖v‖² with unspecified accumulation order (SIMD when
// the platform kernel is active) — the record-norm reduction of the
// expanded-form engines. Candidate-generation use only; canonical
// rounding comes from SquaredDistanceFlat.
func SumSquares(v []float64) float64 { return sumSquares(v) }

// MulBatchT computes the records×units dot-product block of the batched
// BMU search: out[r*units+u] = x.Row(r) · flat[u*dim : (u+1)*dim], for all
// rows of x against all complete dim-wide rows of flat (a trailing partial
// row is ignored, matching ArgMinDistance). out must have length at least
// x.Rows()*units. The accumulation order is unspecified — the kernel
// reassociates sums for instruction-level parallelism, and uses AVX2+FMA
// assembly where the CPU supports it — so callers needing canonical
// rounding must re-derive it with Dot/SquaredDistanceFlat.
func MulBatchT(x View, flat []float64, out []float64) {
	dim := x.Dim()
	if dim == 0 {
		return
	}
	units := len(flat) / dim
	if units == 0 {
		return
	}
	mulBatchT(x, flat, out, x.Rows(), units, dim)
}

// mulBatchGeneric is the portable records×units dot-block kernel: 4
// record rows × 2 weight rows per accumulator group (8 independent
// chains), every loaded record value reused across 2 weight rows and
// every weight value across 4 records.
func mulBatchGeneric(x View, flat []float64, out []float64, n, units, dim int) {
	r := 0
	for ; r+4 <= n; r += 4 {
		x0 := x.Row(r)[:dim]
		x1 := x.Row(r + 1)[:dim]
		x2 := x.Row(r + 2)[:dim]
		x3 := x.Row(r + 3)[:dim]
		o0 := out[(r+0)*units : (r+1)*units]
		o1 := out[(r+1)*units : (r+2)*units]
		o2 := out[(r+2)*units : (r+3)*units]
		o3 := out[(r+3)*units : (r+4)*units]
		u := 0
		for ; u+2 <= units; u += 2 {
			w0 := flat[(u+0)*dim : (u+1)*dim]
			w1 := flat[(u+1)*dim : (u+2)*dim]
			var a00, a01, a10, a11, a20, a21, a30, a31 float64
			for j := 0; j < dim; j++ {
				wv0, wv1 := w0[j], w1[j]
				v0 := x0[j]
				a00 += v0 * wv0
				a01 += v0 * wv1
				v1 := x1[j]
				a10 += v1 * wv0
				a11 += v1 * wv1
				v2 := x2[j]
				a20 += v2 * wv0
				a21 += v2 * wv1
				v3 := x3[j]
				a30 += v3 * wv0
				a31 += v3 * wv1
			}
			o0[u], o0[u+1] = a00, a01
			o1[u], o1[u+1] = a10, a11
			o2[u], o2[u+1] = a20, a21
			o3[u], o3[u+1] = a30, a31
		}
		if u < units {
			w0 := flat[u*dim : (u+1)*dim]
			var a0, a1, a2, a3 float64
			for j := 0; j < dim; j++ {
				wv := w0[j]
				a0 += x0[j] * wv
				a1 += x1[j] * wv
				a2 += x2[j] * wv
				a3 += x3[j] * wv
			}
			o0[u], o1[u], o2[u], o3[u] = a0, a1, a2, a3
		}
	}
	// Record tail: one row against unit pairs, two accumulator chains.
	for ; r < n; r++ {
		xr := x.Row(r)[:dim]
		or := out[r*units : (r+1)*units]
		u := 0
		for ; u+2 <= units; u += 2 {
			w0 := flat[(u+0)*dim : (u+1)*dim]
			w1 := flat[(u+1)*dim : (u+2)*dim]
			var a0, a1 float64
			for j := 0; j < dim; j++ {
				v := xr[j]
				a0 += v * w0[j]
				a1 += v * w1[j]
			}
			or[u], or[u+1] = a0, a1
		}
		if u < units {
			w0 := flat[u*dim : (u+1)*dim]
			var a0 float64
			for j := 0; j < dim; j++ {
				a0 += xr[j] * w0[j]
			}
			or[u] = a0
		}
	}
}

// SquaredNorms writes the squared Euclidean norm of every complete
// dim-wide row of flat into dst (appended, so pass dst[:0] to reuse
// storage) and returns it.
func SquaredNorms(flat []float64, dim int, dst []float64) []float64 {
	if dim <= 0 {
		return dst
	}
	for off := 0; off+dim <= len(flat); off += dim {
		dst = append(dst, sumSquares(flat[off:off+dim]))
	}
	return dst
}

// sumSquaresGeneric is the portable squared-norm reduction: four
// independent accumulator chains so the sum is not bound by the serial
// add latency of the canonical kernels. Candidate-generation use only.
func sumSquaresGeneric(v []float64) float64 {
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(v); j += 4 {
		s0 += v[j] * v[j]
		s1 += v[j+1] * v[j+1]
		s2 += v[j+2] * v[j+2]
		s3 += v[j+3] * v[j+3]
	}
	for ; j < len(v); j++ {
		s0 += v[j] * v[j]
	}
	return s0 + s1 + s2 + s3
}

// MaxOrZero returns the largest element of v under plain > comparison
// (NaN entries are ignored), or 0 for an empty slice. It is the
// max-squared-norm reduction of the expanded-form settle margin: a NaN
// norm means the unit's weights contain NaN, so its exact distance is NaN
// for every query and the unit can never win in the scalar kernel either —
// excluding it from the margin is safe.
func MaxOrZero(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
