package som

import (
	"math"

	"ghsom/internal/parallel"
	"ghsom/internal/vecmath"
)

// Batch quality measures run their BMU searches on the map's configured
// Parallelism (SetParallelism; 0 = GOMAXPROCS), in chunks of one GEMM
// tile of rows (vecmath.DefaultTileRows). Every reduction over the
// per-record results happens serially in data order, so all results are
// bit-for-bit identical for every worker count.

// bmuAll computes the BMU index and squared distance for every data vector
// into the provided slices, in parallel.
func (m *Map) bmuAll(data [][]float64, bmus []int, d2s []float64) {
	parallel.ForEachChunk(nil, m.parallelism, len(data), vecmath.DefaultTileRows, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			bmus[i], d2s[i] = m.BMU(data[i])
		}
		return nil
	})
}

// Assign returns the BMU index for every data vector. Callers must ensure
// dimensions match (use checkData-validating entry points otherwise).
func (m *Map) Assign(data [][]float64) []int {
	out := make([]int, len(data))
	parallel.ForEachChunk(nil, m.parallelism, len(data), vecmath.DefaultTileRows, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i], _ = m.BMU(data[i])
		}
		return nil
	})
	return out
}

// MQE returns the map's mean quantization error over data: the mean
// Euclidean distance from each vector to its BMU. Returns NaN for empty
// data.
func (m *Map) MQE(data [][]float64) float64 { return m.mqeAt(data, m.parallelism) }

// mqeAt is MQE with an explicit worker bound, so TrainBatch can honor its
// own TrainConfig.Parallelism rather than the map-level knob.
func (m *Map) mqeAt(data [][]float64, p int) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	d2s := make([]float64, len(data))
	parallel.ForEachChunk(nil, p, len(data), vecmath.DefaultTileRows, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			_, d2s[i] = m.BMU(data[i])
		}
		return nil
	})
	var sum float64
	for _, d2 := range d2s {
		sum += math.Sqrt(d2)
	}
	return sum / float64(len(data))
}

// UnitErrors returns, per unit, the summed quantization error of the data
// vectors mapped to it and the number of vectors mapped. Units with no data
// have zero error and zero count.
func (m *Map) UnitErrors(data [][]float64) (sumQE []float64, counts []int) {
	sumQE = make([]float64, m.Units())
	counts = make([]int, m.Units())
	bmus := make([]int, len(data))
	d2s := make([]float64, len(data))
	m.bmuAll(data, bmus, d2s)
	for i := range data {
		sumQE[bmus[i]] += math.Sqrt(d2s[i])
		counts[bmus[i]]++
	}
	return sumQE, counts
}

// UnitMeanErrors returns the per-unit mean quantization error (sum/count)
// with zero for empty units, plus the counts.
func (m *Map) UnitMeanErrors(data [][]float64) (meanQE []float64, counts []int) {
	sum, counts := m.UnitErrors(data)
	meanQE = sum
	for i := range meanQE {
		if counts[i] > 0 {
			meanQE[i] /= float64(counts[i])
		}
	}
	return meanQE, counts
}

// MeanUnitMQE returns the GHSOM growth criterion: the mean of the per-unit
// mean quantization errors, taken over units that have at least one mapped
// vector. Returns NaN when no unit has data.
func (m *Map) MeanUnitMQE(data [][]float64) float64 {
	meanQE, counts := m.UnitMeanErrors(data)
	var sum float64
	var n int
	for i, c := range counts {
		if c > 0 {
			sum += meanQE[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

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
