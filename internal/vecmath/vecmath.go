// Package vecmath provides the dense float64 kernels under the GHSOM
// library: distance and in-place update kernels on plain []float64
// slices, row-major matrices with zero-copy row views, and the blocked
// BMU engine.
//
// The hot-path kernels do not check lengths: each documents the length
// its caller must guarantee. Only the matrix constructors and views
// report shape errors. Nothing allocates except where the signature
// returns a new slice.
package vecmath

import (
	"errors"
	"math"
)

// ErrLengthMismatch is returned when two vectors that must have equal
// dimension do not.
var ErrLengthMismatch = errors.New("vecmath: vector length mismatch")

// ErrEmpty is returned when an operation requires a non-empty vector.
var ErrEmpty = errors.New("vecmath: empty vector")

// ErrBadShape is returned when a matrix shape or row index is invalid.
var ErrBadShape = errors.New("vecmath: invalid shape")

// SquaredDistance returns the squared Euclidean distance between a and b.
// It is the hot-path kernel for BMU search: no bounds errors are returned;
// the caller must guarantee len(a) == len(b). It panics otherwise, matching
// the behavior of the builtin index expression it compiles down to.
func SquaredDistance(a, b []float64) float64 {
	// Let the compiler eliminate bounds checks in the loop.
	_ = b[len(a)-1]
	var sum float64
	for i, av := range a {
		d := av - b[i]
		sum += d * d
	}
	return sum
}

// Distance returns the Euclidean distance between a and b. Same contract as
// SquaredDistance.
func Distance(a, b []float64) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}

// SquaredDistanceFlat returns the squared Euclidean distance between x and
// the row starting at offset off of the packed row-major matrix flat. It is
// the strided-view counterpart of SquaredDistance for flat weight storage:
// the caller must guarantee off >= 0 and off+len(x) <= len(flat); it panics
// otherwise.
func SquaredDistanceFlat(x, flat []float64, off int) float64 {
	row := flat[off : off+len(x)]
	var sum float64
	for i, xv := range x {
		d := xv - row[i]
		sum += d * d
	}
	return sum
}

// ArgMinDistance returns the index of the row of the packed row-major
// matrix flat (row length len(x), row count len(flat)/len(x)) nearest to x
// in squared Euclidean distance, and that squared distance. Ties resolve to
// the lowest index. A trailing partial row is ignored; an empty x or matrix
// returns (-1, +Inf). This is the BMU-search kernel: one pass over a single
// contiguous array, no per-row slice headers or pointer chasing.
func ArgMinDistance(x, flat []float64) (int, float64) {
	dim := len(x)
	best, bestVal := -1, math.Inf(1)
	if dim == 0 {
		return best, bestVal
	}
	for i, off := 0, 0; off+dim <= len(flat); i, off = i+1, off+dim {
		row := flat[off : off+dim]
		var sum float64
		for j, xv := range x {
			d := xv - row[j]
			sum += d * d
		}
		if sum < bestVal {
			best, bestVal = i, sum
		}
	}
	return best, bestVal
}

// Clone returns a copy of v. A nil input yields a nil output.
func Clone(v []float64) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// AXPYInPlace computes dst += alpha * x in place, four independent
// elements per step (one AVX multiply and one add where the CPU has
// them; each rounds like the scalar expression). The caller must
// guarantee len(dst) == len(x).
func AXPYInPlace(dst []float64, alpha float64, x []float64) { axpyInPlace(dst, alpha, x[:len(dst)]) }

// axpyGeneric is the portable AXPYInPlace kernel; len(x) == len(dst).
func axpyGeneric(dst []float64, alpha float64, x []float64) {
	for len(dst) >= 4 && len(x) >= 4 {
		dst[0] += alpha * x[0]
		dst[1] += alpha * x[1]
		dst[2] += alpha * x[2]
		dst[3] += alpha * x[3]
		dst, x = dst[4:], x[4:]
	}
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}

// AddInPlace computes dst += x in place. It rounds exactly like
// AXPYInPlace(dst, 1, x) — 1·x is exact — without the multiply, and adds
// four independent elements per step (one AVX instruction where the CPU
// has it; element-wise adds are exact in every lane). The caller must
// guarantee len(x) >= len(dst).
func AddInPlace(dst, x []float64) { addInPlace(dst, x[:len(dst)]) }

// addGeneric is the portable AddInPlace kernel; len(x) == len(dst).
func addGeneric(dst, x []float64) {
	for len(dst) >= 4 && len(x) >= 4 {
		dst[0] += x[0]
		dst[1] += x[1]
		dst[2] += x[2]
		dst[3] += x[3]
		dst, x = dst[4:], x[4:]
	}
	for i := range dst {
		dst[i] += x[i]
	}
}

// MoveToward moves dst a fraction alpha of the way toward target, in place:
// dst += alpha * (target - dst). This is the SOM online weight-update
// kernel. The caller must guarantee len(dst) == len(target).
func MoveToward(dst []float64, alpha float64, target []float64) {
	_ = target[len(dst)-1]
	for i := range dst {
		dst[i] += alpha * (target[i] - dst[i])
	}
}

// Sum returns the sum of the elements of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// IsFinite reports whether every element of v is finite (not NaN, not ±Inf).
func IsFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
