package som

import (
	"math"
	"math/rand"
	"testing"

	"ghsom/internal/vecmath"
)

// randomMap builds a trained-looking map with gaussian weights.
func randomMap(t *testing.T, rows, cols, dim int, seed int64) *Map {
	t.Helper()
	m, err := New(rows, cols, dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for u := 0; u < m.Units(); u++ {
		for d := range w {
			w[d] = rng.NormFloat64()
		}
		if err := m.SetWeight(u, w); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// bmuWhere is the predicate-driven scalar scan BMUMasked is checked
// against: the best-matching unit among units accepted by allowed, with
// its squared distance. ok is false when no unit is allowed.
func bmuWhere(m *Map, x []float64, allowed func(int) bool) (bmu int, dist2 float64, ok bool) {
	bmu, dist2 = -1, math.Inf(1)
	for i, units := 0, m.Units(); i < units; i++ {
		if !allowed(i) {
			continue
		}
		if d := vecmath.SquaredDistanceFlat(x, m.flat, i*m.dim); d < dist2 {
			bmu, dist2 = i, d
		}
	}
	if bmu < 0 {
		return 0, 0, false
	}
	return bmu, dist2, true
}

// TestBMUMaskedMatchesBMUWhere verifies the closure-free masked kernel is
// bit-identical to bmuWhere with the equivalent unit-count predicate,
// including tie-breaking and the no-allowed-unit case.
func TestBMUMaskedMatchesBMUWhere(t *testing.T) {
	m := randomMap(t, 4, 5, 3, 1)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, m.Units())
	for u := range counts {
		if rng.Intn(3) > 0 {
			counts[u] = rng.Intn(5) + 1
		}
	}
	// A short counts slice must exclude the tail units, like the predicate.
	for _, c := range [][]int{counts, counts[:7], make([]int, m.Units()), nil} {
		for i := 0; i < 200; i++ {
			x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			wantBMU, wantD2, wantOK := bmuWhere(m, x, func(u int) bool {
				return u < len(c) && c[u] > 0
			})
			gotBMU, gotD2, gotOK := m.BMUMasked(x, c)
			if gotBMU != wantBMU || gotD2 != wantD2 || gotOK != wantOK {
				t.Fatalf("BMUMasked = (%d, %v, %v), bmuWhere = (%d, %v, %v)",
					gotBMU, gotD2, gotOK, wantBMU, wantD2, wantOK)
			}
		}
	}
}

// TestAssignFlatMatchesBMU verifies the flat batch assignment equals the
// per-row BMU at every worker count.
func TestAssignFlatMatchesBMU(t *testing.T) {
	m := randomMap(t, 3, 4, 5, 3)
	rng := rand.New(rand.NewSource(4))
	n := 333
	flat := make([]float64, n*m.Dim())
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	wantBMU := make([]int, n)
	wantD2 := make([]float64, n)
	for i := 0; i < n; i++ {
		wantBMU[i], wantD2[i] = m.BMU(flat[i*m.Dim() : (i+1)*m.Dim()])
	}
	for _, p := range []int{1, 2, 8, 0} {
		bmus := make([]int, n)
		d2s := make([]float64, n)
		if err := m.AssignFlat(flat, n, bmus, d2s, p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if bmus[i] != wantBMU[i] || d2s[i] != wantD2[i] {
				t.Fatalf("p=%d row %d: AssignFlat = (%d, %v), want (%d, %v)",
					p, i, bmus[i], d2s[i], wantBMU[i], wantD2[i])
			}
		}
		// Nil output slices skip that result without error.
		if err := m.AssignFlat(flat, n, bmus, nil, p); err != nil {
			t.Fatal(err)
		}
		if err := m.AssignFlat(flat, n, nil, d2s, p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAssignFlatValidation(t *testing.T) {
	m := randomMap(t, 2, 2, 3, 5)
	flat := make([]float64, 4*m.Dim())
	if err := m.AssignFlat(flat, 5, make([]int, 5), nil, 1); err == nil {
		t.Error("short flat accepted")
	}
	if err := m.AssignFlat(flat, 4, make([]int, 3), nil, 1); err == nil {
		t.Error("short bmus accepted")
	}
	if err := m.AssignFlat(flat, 4, nil, make([]float64, 3), 1); err == nil {
		t.Error("short d2s accepted")
	}
}
