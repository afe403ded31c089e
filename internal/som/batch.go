package som

import (
	"fmt"
	"math"

	"ghsom/internal/vecmath"
)

// This file holds the flat-batch BMU kernels of the inference dataplane:
// closure-free masked BMU search and batch assignment over a row-major
// flat data matrix. They reuse the contiguous weight storage kernels
// (vecmath.ArgMinDistance / SquaredDistanceFlat) so a batch descent
// touches exactly two flat arrays — the query rows and the weights.

// BMUMasked returns the best-matching unit of x among units u with
// counts[u] > 0 (units at or beyond len(counts) are excluded), with its
// squared distance. ok is false when no unit passes the mask. It is the
// kernel under effective-codebook routing, allocates nothing, and resolves
// ties to the lowest unit index, exactly like BMU.
func (m *Map) BMUMasked(x []float64, counts []int) (bmu int, dist2 float64, ok bool) {
	bmu, dist2 = -1, math.Inf(1)
	limit := len(counts)
	if u := m.Units(); u < limit {
		limit = u
	}
	for i := 0; i < limit; i++ {
		if counts[i] <= 0 {
			continue
		}
		if d := vecmath.SquaredDistanceFlat(x, m.flat, i*m.dim); d < dist2 {
			bmu, dist2 = i, d
		}
	}
	if bmu < 0 {
		return 0, 0, false
	}
	return bmu, dist2, true
}

// AssignFlat computes the BMU index and squared distance of every row of
// the flat row-major matrix (n rows of Dim() values) into bmus and d2s,
// which must both have length at least n. Unlike the map-level batch ops
// (AssignView, UnitErrorsSet) it takes the worker bound explicitly — 0 =
// GOMAXPROCS, 1 = serial — so callers embedding it under an outer
// parallel loop (the anomaly batch quantizer) can pin it to 1 instead of
// inheriting the map's knob. The search runs on the BMU engine (sparse
// expanded-distance candidates against the cached codebook, exact
// settle); results are positionally
// stable and bit-for-bit identical to calling BMU per row at every
// setting. Either output slice may be nil to skip that result.
func (m *Map) AssignFlat(flat []float64, n int, bmus []int, d2s []float64, parallelism int) error {
	if len(flat) < n*m.dim {
		return fmt.Errorf("assign flat batch of %d rows from %d values, want >= %d: %w",
			n, len(flat), n*m.dim, ErrDimMismatch)
	}
	if bmus != nil && len(bmus) < n {
		return fmt.Errorf("bmus length %d < %d rows: %w", len(bmus), n, ErrBadShape)
	}
	if d2s != nil && len(d2s) < n {
		return fmt.Errorf("d2s length %d < %d rows: %w", len(d2s), n, ErrBadShape)
	}
	mat, err := vecmath.MatrixOver(flat, n, m.dim)
	if err != nil {
		return fmt.Errorf("assign flat batch: %w", err)
	}
	m.bmuView(mat.View(), vecmath.Sparse{}, nil, m.codebook(), bmus, d2s, parallelism)
	return nil
}
