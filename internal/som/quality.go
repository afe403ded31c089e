package som

import (
	"math"

	"ghsom/internal/parallel"
	"ghsom/internal/vecmath"
)

// TopographicError runs its BMU searches on the map's configured
// Parallelism (SetParallelism; 0 = GOMAXPROCS), in chunks of one GEMM
// tile of rows (vecmath.DefaultTileRows); its integer count folds
// exactly, so the result is identical for every worker count. The
// quantization-error measures over a data view (AssignView,
// UnitErrorsView, UnitErrorsSet) live beside the training kernels in
// train_flat.go.

// TopographicError returns the fraction of data vectors whose first and
// second BMUs are not grid neighbors — the standard measure of topology
// preservation. Returns 0 for maps with fewer than two units, NaN for empty
// data.
func (m *Map) TopographicError(data [][]float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	if m.Units() < 2 {
		return 0
	}
	// An integer count is order-independent, so the chunked map-reduce is
	// exact at every worker count.
	n := parallel.MapReduceChunk(m.parallelism, len(data), vecmath.DefaultTileRows, 0,
		func(lo, hi int) int {
			bad := 0
			for i := lo; i < hi; i++ {
				first, second := m.BMU2(data[i])
				if !m.AreGridNeighbors(first, second) {
					bad++
				}
			}
			return bad
		},
		func(acc, part int) int { return acc + part })
	return float64(n) / float64(len(data))
}

// UMatrix returns the unified distance matrix: for each unit, the mean
// weight-space distance to its direct grid neighbors. High values mark
// cluster boundaries. The result is indexed [row][col].
func (m *Map) UMatrix() [][]float64 {
	out := make([][]float64, m.rows)
	var nbuf [4]int
	for r := 0; r < m.rows; r++ {
		out[r] = make([]float64, m.cols)
		for c := 0; c < m.cols; c++ {
			i := m.Index(r, c)
			neighbors := m.Neighbors(i, nbuf[:0])
			if len(neighbors) == 0 {
				continue
			}
			var sum float64
			for _, j := range neighbors {
				sum += vecmath.Distance(m.Weight(i), m.Weight(j))
			}
			out[r][c] = sum / float64(len(neighbors))
		}
	}
	return out
}

// ComponentPlane returns the d-th weight component of every unit as a
// [row][col] matrix — the standard per-feature view of a trained map.
func (m *Map) ComponentPlane(d int) [][]float64 {
	out := make([][]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		out[r] = make([]float64, m.cols)
		for c := 0; c < m.cols; c++ {
			out[r][c] = m.WeightAt(r, c)[d]
		}
	}
	return out
}
