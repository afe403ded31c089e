package vecmath

import "math"

// QuantileSorted returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// slice using linear interpolation between closest ranks. An empty input
// returns NaN.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	q = Clamp(q, 0, 1)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
