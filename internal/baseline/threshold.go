package baseline

import (
	"math"
	"sort"
)

// VolumeThreshold is the naive single-feature detector: flag a record as
// an attack when a chosen feature (typically the 2-second connection
// count) exceeds a quantile learned from normal traffic. It is the floor
// every clustering detector must beat.
type VolumeThreshold struct {
	feature   int
	threshold float64
}

// TrainVolumeThreshold learns the q-quantile of feature featureIdx over
// normalData (rows of encoded vectors known to be normal).
func TrainVolumeThreshold(normalData [][]float64, featureIdx int, q float64) (*VolumeThreshold, error) {
	if len(normalData) == 0 {
		return nil, ErrNoData
	}
	vals := make([]float64, 0, len(normalData))
	for _, row := range normalData {
		if featureIdx < 0 || featureIdx >= len(row) {
			continue
		}
		vals = append(vals, row[featureIdx])
	}
	if len(vals) == 0 {
		return nil, ErrNoData
	}
	sort.Float64s(vals)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	thr := vals[lo]
	if hi != lo {
		frac := pos - float64(lo)
		thr = vals[lo]*(1-frac) + vals[hi]*frac
	}
	return &VolumeThreshold{feature: featureIdx, threshold: thr}, nil
}

// Score returns the feature value (higher = more anomalous).
func (v *VolumeThreshold) Score(x []float64) float64 {
	if v.feature < 0 || v.feature >= len(x) {
		return 0
	}
	return x[v.feature]
}

// IsAttack reports whether x exceeds the learned threshold.
func (v *VolumeThreshold) IsAttack(x []float64) bool {
	return v.Score(x) > v.threshold
}
