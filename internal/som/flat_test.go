package som

import (
	"math/rand"
	"testing"
)

// TestWeightViewsShareContiguousStorage verifies the flat-layout contract:
// Weight(i) is a strided view into one backing array, and writing through
// SetWeight is visible through both Weight and Weights.
func TestWeightViewsShareContiguousStorage(t *testing.T) {
	m, err := New(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(m.Weights()), 2*3*4; got != want {
		t.Fatalf("backing array length = %d, want %d", got, want)
	}
	if err := m.SetWeight(4, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	flat := m.Weights()
	for d := 0; d < 4; d++ {
		if flat[4*4+d] != float64(d+1) {
			t.Fatalf("backing array at unit 4 dim %d = %v, want %v", d, flat[4*4+d], float64(d+1))
		}
	}
	w := m.Weight(4)
	if len(w) != 4 || cap(w) != 4 {
		t.Errorf("Weight(4) len/cap = %d/%d, want 4/4 (capped view)", len(w), cap(w))
	}
	// A view write must be visible in the backing array (views alias).
	w[0] = 42
	if m.Weights()[4*4] != 42 {
		t.Error("Weight view does not alias backing storage")
	}
}

// TestGrowInvalidatesRetainedWeightViews is the regression test for the
// Weight/GrowBetween documentation contract: growth reallocates the backing
// array, so weight slices retained across a growth call go stale — they
// keep the pre-growth values and no longer observe the live map.
func TestGrowInvalidatesRetainedWeightViews(t *testing.T) {
	m, err := New(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.SetWeight(i, []float64{float64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	retained := m.Weight(3) // unit (1,1) before growth
	retainedFlat := m.Weights()
	if err := m.GrowBetween(0, 1); err != nil { // insert a column
		t.Fatal(err)
	}

	// The retained views still hold the old values: they must not have
	// been silently remapped or zeroed.
	if retained[0] != 3 || retained[1] != 3 {
		t.Errorf("retained view changed value after growth: %v", retained)
	}
	if len(retainedFlat) != 4*2 {
		t.Errorf("retained backing array resized in place: len %d", len(retainedFlat))
	}

	// Writes through the stale view must not leak into the grown map: unit
	// (1,1) of the old shape is unit (1,1) of an abandoned array.
	retained[0] = -999
	for u := 0; u < m.Units(); u++ {
		for _, v := range m.Weight(u) {
			if v == -999 {
				t.Fatalf("stale view write leaked into grown map at unit %d", u)
			}
		}
	}

	// And fresh views observe the grown geometry: old unit 3 (1,1) moved
	// to unit index 5 under the new 2x3 shape.
	if got := m.Weight(5); got[0] != 3 || got[1] != 3 {
		t.Errorf("post-growth Weight(5) = %v, want [3 3]", got)
	}
}

// TestBMUShortQueryStaysInRange pins the dimension-mismatch contract kept
// from the pre-flat storage: a query shorter than the map dimension is
// matched by prefix distance and always yields an in-range unit index
// (the flat kernel would otherwise stride misaligned rows).
func TestBMUShortQueryStaysInRange(t *testing.T) {
	m, err := New(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.SetWeight(i, []float64{float64(i), float64(i), 9, 9}); err != nil {
			t.Fatal(err)
		}
	}
	bmu, d2 := m.BMU([]float64{3, 3})
	if bmu < 0 || bmu >= m.Units() {
		t.Fatalf("short query returned out-of-range unit %d of %d", bmu, m.Units())
	}
	if bmu != 3 || d2 != 0 {
		t.Errorf("short query BMU = (%d, %v), want prefix match (3, 0)", bmu, d2)
	}
}

// TestBatchOpsIdenticalAcrossParallelism verifies the determinism contract
// of the parallel batch operations: AssignView, the view MQE, UnitErrorsView,
// TrainBatchView and TopographicError produce bit-identical results for
// every worker count.
func TestBatchOpsIdenticalAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([][]float64, 500)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	v := rowsView(t, data)
	build := func(p int) *Map {
		m, err := New(4, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		m.SetParallelism(p)
		if err := m.InitSample(data, rand.New(rand.NewSource(9))); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultTrainConfig(nil)
		cfg.Shuffle = false
		cfg.Parallelism = p
		if _, err := m.TrainBatchView(v, cfg); err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := build(1)
	refAssign := ref.AssignView(v)
	refMQE := ref.mqeView(v, nil, ref.Parallelism(), nil)
	refSum, refCounts := ref.UnitErrorsView(v)
	refTE := ref.TopographicError(data)
	for _, p := range []int{2, 4, 8, 0} {
		m := build(p)
		for i, w := range m.Weights() {
			if w != ref.Weights()[i] {
				t.Fatalf("p=%d: trained weights differ at flat index %d", p, i)
			}
		}
		assign := m.AssignView(v)
		for i := range assign {
			if assign[i] != refAssign[i] {
				t.Fatalf("p=%d: AssignView[%d] = %d, want %d", p, i, assign[i], refAssign[i])
			}
		}
		if mqe := m.mqeView(v, nil, m.Parallelism(), nil); mqe != refMQE {
			t.Errorf("p=%d: mqeView = %v, want %v", p, mqe, refMQE)
		}
		sum, counts := m.UnitErrorsView(v)
		for u := range sum {
			if sum[u] != refSum[u] || counts[u] != refCounts[u] {
				t.Fatalf("p=%d: UnitErrorsView[%d] = (%v, %d), want (%v, %d)",
					p, u, sum[u], counts[u], refSum[u], refCounts[u])
			}
		}
		if te := m.TopographicError(data); te != refTE {
			t.Errorf("p=%d: TopographicError = %v, want %v", p, te, refTE)
		}
	}
}
