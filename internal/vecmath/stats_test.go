package vecmath

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tt := range tests {
		if got := QuantileSorted(v, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("QuantileSorted(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(QuantileSorted(nil, 0.5)) {
		t.Error("QuantileSorted of empty slice should be NaN")
	}
}

func TestQuantileSortedInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := QuantileSorted(sorted, 0.3); math.Abs(got-3) > 1e-12 {
		t.Errorf("QuantileSorted interpolation = %v, want 3", got)
	}
	// Out-of-range q clamps.
	if got := QuantileSorted(sorted, -1); got != 0 {
		t.Errorf("QuantileSorted(q=-1) = %v, want 0", got)
	}
	if got := QuantileSorted(sorted, 2); got != 10 {
		t.Errorf("QuantileSorted(q=2) = %v, want 10", got)
	}
}
