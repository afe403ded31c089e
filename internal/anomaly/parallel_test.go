package anomaly

import (
	"math/rand"
	"strconv"
	"testing"
)

// TestFitAndClassifyIdenticalAcrossParallelism verifies the determinism
// contract of the parallel quantization pass and ClassifyBatchAt: fitted
// state and predictions are identical at every worker count.
func TestFitAndClassifyIdenticalAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var data [][]float64
	var labels []string
	for i := 0; i < 2000; i++ {
		cell := rng.Intn(6)
		data = append(data, []float64{float64(cell) + rng.Float64()})
		if cell >= 4 && rng.Float64() < 0.8 {
			labels = append(labels, "neptune")
		} else {
			labels = append(labels, "normal")
		}
	}
	test := make([][]float64, 500)
	for i := range test {
		test[i] = []float64{rng.Float64() * 8}
	}

	fit := func(p int) *Detector {
		d, err := Fit(gridQuantizer{}, data, labels, Config{Parallelism: p})
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		return d
	}
	flat, dim := flatten(test)
	classify := func(d *Detector, p int) []Prediction {
		out := make([]Prediction, len(test))
		if err := d.ClassifyBatchAt(flat, len(test), dim, out, p); err != nil {
			t.Fatalf("classify at parallelism %d: %v", p, err)
		}
		return out
	}
	ref := fit(1)
	refPreds := classify(ref, 1)
	for _, p := range []int{2, 8, 0} {
		d := fit(p)
		if d.globalQE != ref.globalQE {
			t.Errorf("p=%d: global threshold %v, want %v", p, d.globalQE, ref.globalQE)
		}
		if d.Cells() != ref.Cells() {
			t.Fatalf("p=%d: %d cells, want %d", p, d.Cells(), ref.Cells())
		}
		for c := -1; c < 10; c++ {
			cell := strconv.Itoa(c)
			gotInfo, gotOK := d.cells[cell]
			wantInfo, wantOK := ref.cells[cell]
			if gotOK != wantOK || gotInfo != wantInfo {
				t.Errorf("p=%d: cell %s state (%+v, %v), want (%+v, %v)",
					p, cell, gotInfo, gotOK, wantInfo, wantOK)
			}
		}
		for _, cp := range []int{1, 4, 0} {
			preds := classify(d, cp)
			for i := range preds {
				if preds[i] != refPreds[i] {
					t.Fatalf("fit p=%d classify p=%d: prediction %d = %+v, want %+v", p, cp, i, preds[i], refPreds[i])
				}
			}
		}
	}
}
