package metrics

import (
	"fmt"
	"math"
	"sort"
)

// ROCPoint is one operating point of a detector: the false positive rate
// and true positive rate achieved at a given score threshold.
type ROCPoint struct {
	// Threshold is the score cutoff: scores >= Threshold predict attack.
	Threshold float64
	// FPR is the false positive rate at this threshold.
	FPR float64
	// TPR is the true positive rate (detection rate) at this threshold.
	TPR float64
}

// ROC computes the full ROC curve for scores where higher means more
// anomalous. truthAttack[i] reports whether record i is a true attack.
// The curve is returned in increasing-FPR order, starting at (0,0) and
// ending at (1,1). It requires at least one positive and one negative.
func ROC(scores []float64, truthAttack []bool) ([]ROCPoint, error) {
	if len(scores) != len(truthAttack) {
		return nil, fmt.Errorf("%d scores vs %d truths: %w", len(scores), len(truthAttack), ErrLengthMismatch)
	}
	var pos, neg int
	for _, a := range truthAttack {
		if a {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("metrics: ROC needs both classes (pos=%d neg=%d)", pos, neg)
	}
	type scored struct {
		s      float64
		attack bool
	}
	rows := make([]scored, len(scores))
	for i := range scores {
		rows[i] = scored{scores[i], truthAttack[i]}
	}
	// Descending score: as the threshold lowers, TP and FP accumulate.
	sort.Slice(rows, func(i, j int) bool { return rows[i].s > rows[j].s })

	points := []ROCPoint{{Threshold: math.Inf(1), FPR: 0, TPR: 0}}
	var tp, fp int
	for i := 0; i < len(rows); {
		// Process ties together so the curve is threshold-consistent.
		j := i
		for j < len(rows) && rows[j].s == rows[i].s {
			if rows[j].attack {
				tp++
			} else {
				fp++
			}
			j++
		}
		points = append(points, ROCPoint{
			Threshold: rows[i].s,
			FPR:       float64(fp) / float64(neg),
			TPR:       float64(tp) / float64(pos),
		})
		i = j
	}
	return points, nil
}

// AUC returns the area under an ROC curve via the trapezoid rule. The
// curve must be in increasing-FPR order (as returned by ROC).
func AUC(curve []ROCPoint) float64 {
	if len(curve) < 2 {
		return math.NaN()
	}
	var area float64
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		area += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return area
}
