package som

import "ghsom/internal/vecmath"

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
