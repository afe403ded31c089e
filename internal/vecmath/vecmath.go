// Package vecmath provides the dense float64 vector and statistics
// primitives used throughout the GHSOM library.
//
// All functions operate on plain []float64 slices. Functions that combine
// two vectors require equal lengths and report a length mismatch through
// their error return (or, for hot-path kernels documented as such, treat the
// shorter length as authoritative). The package allocates only where the
// signature returns a new slice; in-place variants are provided for the
// training hot paths.
package vecmath

import (
	"errors"
	"fmt"
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

// ManhattanDistance returns the L1 distance between a and b. Same contract
// as SquaredDistance.
func ManhattanDistance(a, b []float64) float64 {
	_ = b[len(a)-1]
	var sum float64
	for i, av := range a {
		sum += math.Abs(av - b[i])
	}
	return sum
}

// Dot returns the inner product of a and b. Same contract as
// SquaredDistance.
func Dot(a, b []float64) float64 {
	_ = b[len(a)-1]
	var sum float64
	for i, av := range a {
		sum += av * b[i]
	}
	return sum
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
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

// Add returns a+b as a new vector.
func Add(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("add %d-vector to %d-vector: %w", len(a), len(b), ErrLengthMismatch)
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out, nil
}

// Sub returns a-b as a new vector.
func Sub(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("subtract %d-vector from %d-vector: %w", len(b), len(a), ErrLengthMismatch)
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out, nil
}

// Scale returns s*v as a new vector.
func Scale(v []float64, s float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = s * x
	}
	return out
}

// AXPYInPlace computes dst += alpha * x in place, four independent
// elements per step. The caller must guarantee len(dst) == len(x).
func AXPYInPlace(dst []float64, alpha float64, x []float64) {
	x = x[:len(dst)]
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

// Lerp returns the linear interpolation (1-t)*a + t*b as a new vector.
func Lerp(a, b []float64, t float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("lerp %d-vector with %d-vector: %w", len(a), len(b), ErrLengthMismatch)
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = (1-t)*a[i] + t*b[i]
	}
	return out, nil
}

// Mean returns the element-wise mean of the rows. All rows must share one
// length.
func Mean(rows [][]float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	dim := len(rows[0])
	out := make([]float64, dim)
	for ri, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("row %d has length %d, want %d: %w", ri, len(r), dim, ErrLengthMismatch)
		}
		for i, x := range r {
			out[i] += x
		}
	}
	inv := 1 / float64(len(rows))
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

// ArgMin returns the index of the smallest element of v, and that element.
// Ties resolve to the lowest index. An empty slice returns (-1, +Inf).
func ArgMin(v []float64) (int, float64) {
	best, bestVal := -1, math.Inf(1)
	for i, x := range v {
		if x < bestVal {
			best, bestVal = i, x
		}
	}
	return best, bestVal
}

// ArgMax returns the index of the largest element of v, and that element.
// Ties resolve to the lowest index. An empty slice returns (-1, -Inf).
func ArgMax(v []float64) (int, float64) {
	best, bestVal := -1, math.Inf(-1)
	for i, x := range v {
		if x > bestVal {
			best, bestVal = i, x
		}
	}
	return best, bestVal
}

// Sum returns the sum of the elements of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// MinMax returns the smallest and largest elements of v. An empty slice
// returns (+Inf, -Inf).
func MinMax(v []float64) (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
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

// Equal reports whether a and b have the same length and every pair of
// elements differs by at most tol.
func Equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
