package preprocess

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// transform scales a copy of x with TransformInPlace.
func transform(s *MinMaxScaler, x []float64) ([]float64, error) {
	out := slices.Clone(x)
	if err := s.TransformInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}

func TestMinMaxScalerBasic(t *testing.T) {
	var s MinMaxScaler
	data := [][]float64{{0, 10}, {5, 20}, {10, 30}}
	if err := s.Fit(data); err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 2 {
		t.Errorf("Dim = %d", s.Dim())
	}
	got, err := transform(&s, []float64{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-0.5) > 1e-12 || math.Abs(got[1]-0.5) > 1e-12 {
		t.Errorf("Transform = %v, want [0.5 0.5]", got)
	}
	lo, _ := transform(&s, []float64{0, 10})
	hi, _ := transform(&s, []float64{10, 30})
	if lo[0] != 0 || lo[1] != 0 || hi[0] != 1 || hi[1] != 1 {
		t.Errorf("endpoints = %v, %v", lo, hi)
	}
}

func TestMinMaxScalerClampsOutliers(t *testing.T) {
	var s MinMaxScaler
	if err := s.Fit([][]float64{{0}, {10}}); err != nil {
		t.Fatal(err)
	}
	out, _ := transform(&s, []float64{-5})
	if out[0] != 0 {
		t.Errorf("below-range transform = %v, want 0", out[0])
	}
	out, _ = transform(&s, []float64{100})
	if out[0] != 1 {
		t.Errorf("above-range transform = %v, want 1", out[0])
	}
}

func TestMinMaxScalerConstantDim(t *testing.T) {
	var s MinMaxScaler
	if err := s.Fit([][]float64{{7, 1}, {7, 2}}); err != nil {
		t.Fatal(err)
	}
	out, _ := transform(&s, []float64{7, 1.5})
	if out[0] != 0 {
		t.Errorf("constant dim transform = %v, want 0", out[0])
	}
}

func TestScalerErrors(t *testing.T) {
	var mm MinMaxScaler
	if _, err := transform(&mm, []float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted Transform err = %v", err)
	}
	if err := mm.Fit(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("Fit(nil) err = %v", err)
	}
	if err := mm.Fit([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("ragged Fit err = %v", err)
	}
	if err := mm.Fit([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := transform(&mm, []float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("wrong-dim Transform err = %v", err)
	}
}

func TestPropMinMaxInUnitRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		dim := 1 + rng.Intn(5)
		data := make([][]float64, n)
		for i := range data {
			data[i] = make([]float64, dim)
			for d := range data[i] {
				data[i][d] = rng.NormFloat64() * 100
			}
		}
		var s MinMaxScaler
		if s.Fit(data) != nil {
			return false
		}
		for _, r := range data {
			scaled, err := transform(&s, r)
			if err != nil {
				return false
			}
			for _, v := range scaled {
				if v < 0 || v > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestInPlaceAndBatchMatchTransform verifies TransformInPlace and
// TransformBatch are byte-identical to Transform.
func TestInPlaceAndBatchMatchTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	train := make([][]float64, 80)
	for i := range train {
		train[i] = []float64{rng.NormFloat64() * 5, rng.Float64() * 100, 3} // last dim constant
	}
	s := &MinMaxScaler{}
	if err := s.Fit(train); err != nil {
		t.Fatal(err)
	}
	n, d := 50, 3
	flat := make([]float64, n*d)
	want := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := []float64{rng.NormFloat64() * 20, rng.Float64() * 300, float64(i)}
		copy(flat[i*d:(i+1)*d], row)
		w, err := transform(s, row)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w

		inPlace := append([]float64(nil), row...)
		if err := s.TransformInPlace(inPlace); err != nil {
			t.Fatal(err)
		}
		for j := range w {
			if inPlace[j] != w[j] {
				t.Fatalf("row %d dim %d: in-place %v, copy %v", i, j, inPlace[j], w[j])
			}
		}
	}
	if err := s.TransformBatch(flat, d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if flat[i*d+j] != want[i][j] {
				t.Fatalf("row %d dim %d: batch %v, copy %v", i, j, flat[i*d+j], want[i][j])
			}
		}
	}
}

func TestInPlaceAndBatchValidation(t *testing.T) {
	s := &MinMaxScaler{}
	if err := s.TransformInPlace([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted in-place err = %v", err)
	}
	if err := s.TransformBatch([]float64{1}, 1); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted batch err = %v", err)
	}
	if err := s.Fit([][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.TransformInPlace([]float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch in-place err = %v", err)
	}
	if err := s.TransformBatch(make([]float64, 4), 3); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("wrong batch dim err = %v", err)
	}
	if err := s.TransformBatch(make([]float64, 5), 2); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("ragged batch err = %v", err)
	}
}

func TestStratifiedSplit(t *testing.T) {
	keys := make([]string, 100)
	for i := range keys {
		if i < 80 {
			keys[i] = "a"
		} else {
			keys[i] = "b"
		}
	}
	rng := rand.New(rand.NewSource(1))
	sp, err := StratifiedSplit(keys, 0.75, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Train)+len(sp.Test) != 100 {
		t.Fatalf("split loses rows: %d + %d", len(sp.Train), len(sp.Test))
	}
	countKey := func(idx []int, k string) int {
		var n int
		for _, i := range idx {
			if keys[i] == k {
				n++
			}
		}
		return n
	}
	if got := countKey(sp.Train, "a"); got != 60 {
		t.Errorf("train a count = %d, want 60", got)
	}
	if got := countKey(sp.Train, "b"); got != 15 {
		t.Errorf("train b count = %d, want 15", got)
	}
	// No index may appear twice.
	seen := make(map[int]bool)
	for _, i := range append(append([]int{}, sp.Train...), sp.Test...) {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}
}

func TestStratifiedSplitSingletonStratum(t *testing.T) {
	keys := []string{"a", "a", "a", "rare"}
	rng := rand.New(rand.NewSource(2))
	sp, err := StratifiedSplit(keys, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The singleton goes to train.
	found := false
	for _, i := range sp.Train {
		if keys[i] == "rare" {
			found = true
		}
	}
	if !found {
		t.Error("singleton stratum not in train set")
	}
}

func TestStratifiedSplitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := StratifiedSplit(nil, 0.5, rng); !errors.Is(err, ErrNoData) {
		t.Errorf("empty keys err = %v", err)
	}
	if _, err := StratifiedSplit([]string{"a"}, 0, rng); err == nil {
		t.Error("trainFrac 0 accepted")
	}
	if _, err := StratifiedSplit([]string{"a"}, 1, rng); err == nil {
		t.Error("trainFrac 1 accepted")
	}
}

func TestGather(t *testing.T) {
	data := [][]float64{{0}, {1}, {2}, {3}}
	got := Gather(data, []int{3, 1})
	if len(got) != 2 || got[0][0] != 3 || got[1][0] != 1 {
		t.Errorf("Gather = %v", got)
	}
}

func TestCapPerKey(t *testing.T) {
	keys := []string{"a", "a", "a", "a", "b", "b", "c"}
	rng := rand.New(rand.NewSource(4))
	idx := CapPerKey(keys, 2, rng)
	counts := make(map[string]int)
	for _, i := range idx {
		counts[keys[i]]++
	}
	if counts["a"] != 2 || counts["b"] != 2 || counts["c"] != 1 {
		t.Errorf("CapPerKey counts = %v", counts)
	}
	if CapPerKey(keys, 0, rng) != nil {
		t.Error("CapPerKey with cap 0 should be nil")
	}
}
