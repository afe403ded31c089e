package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"ghsom/internal/vecmath"
)

// TestTrainMatrixMatchesSliceAdapter proves the zero-copy entry point and
// the slice adapter are the same model: byte-identical serialized output,
// for both training rules.
func TestTrainMatrixMatchesSliceAdapter(t *testing.T) {
	data := clusteredData(900, 6)
	mat, err := vecmath.MatrixFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []bool{false, true} {
		cfg := trainCfgForParallelTest(2)
		cfg.Batch = batch
		fromSlices, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fromMatrix, err := TrainMatrix(mat, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(modelBytes(t, fromSlices), modelBytes(t, fromMatrix)) {
			t.Errorf("batch=%v: TrainMatrix model differs from Train model", batch)
		}
	}
}

// TestTrainMatrixSubsetMatchesGather proves an index selection trains the
// same model as physically gathering the rows.
func TestTrainMatrixSubsetMatchesGather(t *testing.T) {
	data := clusteredData(1000, 7)
	mat, err := vecmath.MatrixFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 0, 500)
	for i := 0; i < len(data); i += 2 {
		idx = append(idx, i)
	}
	gathered := make([][]float64, len(idx))
	for k, i := range idx {
		gathered[k] = data[i]
	}
	cfg := trainCfgForParallelTest(0)
	fromView, err := TrainMatrix(mat, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromRows, err := Train(gathered, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, fromView), modelBytes(t, fromRows)) {
		t.Error("subset-view model differs from gathered-rows model")
	}
}

func TestTrainMatrixValidation(t *testing.T) {
	mat, err := vecmath.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if _, err := TrainMatrix(mat, []int{0, 2}, cfg); !errors.Is(err, vecmath.ErrBadShape) {
		t.Errorf("out-of-range idx err = %v", err)
	}
	if _, err := TrainMatrix(mat, []int{}, cfg); !errors.Is(err, ErrNoData) {
		t.Errorf("empty idx err = %v", err)
	}
	empty, err := vecmath.MatrixOver(nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainMatrix(empty, nil, cfg); !errors.Is(err, ErrNoData) {
		t.Errorf("empty matrix err = %v", err)
	}
	bad, err := vecmath.MatrixFromRows([][]float64{{1, 2}, {3, math.NaN()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainMatrix(bad, nil, cfg); err == nil {
		t.Error("NaN row accepted")
	}
}
