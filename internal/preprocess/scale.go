// Package preprocess provides the feature scaling and data-splitting
// utilities of the detection pipeline: a min-max scaler fit on training
// data and applied to all splits, plus stratified train/test splitting
// and per-class sampling.
package preprocess

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by the package.
var (
	// ErrNoData is returned when an operation requires at least one row.
	ErrNoData = errors.New("preprocess: no data")
	// ErrDimMismatch is returned when a vector does not match the fitted
	// dimension.
	ErrDimMismatch = errors.New("preprocess: dimension mismatch")
	// ErrNotFitted is returned when transform is called before fit.
	ErrNotFitted = errors.New("preprocess: scaler not fitted")
)

// MinMaxScaler maps each dimension linearly to [0, 1] using the min and
// max observed at fit time. Constant dimensions map to 0. Out-of-range
// values at transform time are clamped, which keeps test-set outliers from
// exploding the SOM distance metric.
type MinMaxScaler struct {
	min, span []float64
}

// Fit learns per-dimension minima and ranges.
func (s *MinMaxScaler) Fit(data [][]float64) error {
	if len(data) == 0 {
		return ErrNoData
	}
	dim := len(data[0])
	min := make([]float64, dim)
	max := make([]float64, dim)
	for d := 0; d < dim; d++ {
		min[d], max[d] = math.Inf(1), math.Inf(-1)
	}
	for i, row := range data {
		if len(row) != dim {
			return fmt.Errorf("row %d has dim %d, want %d: %w", i, len(row), dim, ErrDimMismatch)
		}
		for d, v := range row {
			if v < min[d] {
				min[d] = v
			}
			if v > max[d] {
				max[d] = v
			}
		}
	}
	span := make([]float64, dim)
	for d := range span {
		span[d] = max[d] - min[d]
	}
	s.min, s.span = min, span
	return nil
}

// TransformInPlace scales x into [0, 1] per dimension in place, clamping
// outliers, without allocating.
func (s *MinMaxScaler) TransformInPlace(x []float64) error {
	if s.min == nil {
		return ErrNotFitted
	}
	if len(x) != len(s.min) {
		return fmt.Errorf("vector dim %d, fitted %d: %w", len(x), len(s.min), ErrDimMismatch)
	}
	s.transformRow(x)
	return nil
}

// transformRow is the validated min-max kernel: len(x) == len(s.min).
func (s *MinMaxScaler) transformRow(x []float64) {
	for d, v := range x {
		x[d] = MinMax(v, s.min[d], s.span[d])
	}
}

// MinMax is the min-max expression of one dimension: v mapped by the
// fitted min and span into [0, 1], clamped, and 0 for a constant
// dimension (span <= 0). Every min-max path computes it here, so fused
// kernels outside the scaler produce the scaler's bits.
func MinMax(v, min, span float64) float64 {
	if span <= 0 {
		return 0
	}
	u := (v - min) / span
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	return u
}

// TransformBatch scales every d-wide row of the flat row-major matrix in
// place. The batch is processed serially; parallelize across row ranges at
// a higher layer when needed.
func (s *MinMaxScaler) TransformBatch(flat []float64, d int) error {
	if len(s.min) == 0 {
		return ErrNotFitted
	}
	if d != len(s.min) {
		return fmt.Errorf("batch dim %d, fitted %d: %w", d, len(s.min), ErrDimMismatch)
	}
	if len(flat)%d != 0 {
		return fmt.Errorf("flat batch length %d not a multiple of dim %d: %w", len(flat), d, ErrDimMismatch)
	}
	for off := 0; off < len(flat); off += d {
		s.transformRow(flat[off : off+d])
	}
	return nil
}

// Dim returns the fitted dimension.
func (s *MinMaxScaler) Dim() int { return len(s.min) }

// State exports the fitted minima and spans for serialization. The
// returned slices are copies.
func (s *MinMaxScaler) State() (min, span []float64) {
	min = make([]float64, len(s.min))
	span = make([]float64, len(s.span))
	copy(min, s.min)
	copy(span, s.span)
	return min, span
}

// NewMinMaxScalerFromState rebuilds a scaler from exported state.
func NewMinMaxScalerFromState(min, span []float64) (*MinMaxScaler, error) {
	if len(min) == 0 || len(min) != len(span) {
		return nil, fmt.Errorf("preprocess: state dims %d/%d: %w", len(min), len(span), ErrDimMismatch)
	}
	s := &MinMaxScaler{min: make([]float64, len(min)), span: make([]float64, len(span))}
	copy(s.min, min)
	copy(s.span, span)
	return s, nil
}
