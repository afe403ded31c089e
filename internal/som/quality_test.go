package som

import (
	"math"
	"math/rand"
	"testing"

	"ghsom/internal/vecmath"
)

// rowsView copies rows into a contiguous matrix and returns its view —
// the form the map's data-set operations take.
func rowsView(t testing.TB, rows [][]float64) vecmath.View {
	t.Helper()
	mat, err := vecmath.MatrixFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return mat.View()
}

// lineMap returns a 1x3 map with weights 0, 5, 10 in one dimension.
func lineMap(t *testing.T) *Map {
	t.Helper()
	m, err := New(1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = m.SetWeight(0, []float64{0})
	_ = m.SetWeight(1, []float64{5})
	_ = m.SetWeight(2, []float64{10})
	return m
}

func TestMQE(t *testing.T) {
	m := lineMap(t)
	data := [][]float64{{1}, {4}, {11}} // distances 1, 1, 1
	if got := m.mqeView(rowsView(t, data), nil, 0, nil); math.Abs(got-1) > 1e-12 {
		t.Errorf("MQE = %v, want 1", got)
	}
	if !math.IsNaN(m.mqeView(vecmath.View{}, nil, 0, nil)) {
		t.Error("MQE of empty data should be NaN")
	}
}

func TestUnitErrorsAndCounts(t *testing.T) {
	m := lineMap(t)
	data := [][]float64{{0}, {1}, {6}} // units 0,0,1
	sum, counts := m.UnitErrorsView(rowsView(t, data))
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 0 {
		t.Errorf("counts = %v", counts)
	}
	if math.Abs(sum[0]-1) > 1e-12 { // 0 + 1
		t.Errorf("sumQE[0] = %v, want 1", sum[0])
	}
	if math.Abs(sum[1]-1) > 1e-12 {
		t.Errorf("sumQE[1] = %v, want 1", sum[1])
	}
	mean := MeanErrors(sum, counts)
	if math.Abs(mean[0]-0.5) > 1e-12 {
		t.Errorf("meanQE[0] = %v, want 0.5", mean[0])
	}
	if mean[2] != 0 {
		t.Errorf("meanQE of empty unit = %v, want 0", mean[2])
	}
}

func TestTopographicError(t *testing.T) {
	m := lineMap(t)
	// x=1: BMU 0, second 1 — neighbors, no error.
	if got := m.TopographicError([][]float64{{1}}); got != 0 {
		t.Errorf("TE for adjacent BMUs = %v, want 0", got)
	}
	// Build a map where first and second BMU are non-adjacent.
	m2, _ := New(1, 3, 1)
	_ = m2.SetWeight(0, []float64{0})
	_ = m2.SetWeight(1, []float64{100})
	_ = m2.SetWeight(2, []float64{1})
	if got := m2.TopographicError([][]float64{{0.4}}); got != 1 {
		t.Errorf("TE for split BMUs = %v, want 1", got)
	}
	if !math.IsNaN(m.TopographicError(nil)) {
		t.Error("TE of empty data should be NaN")
	}
	single, _ := New(1, 1, 1)
	if got := single.TopographicError([][]float64{{1}}); got != 0 {
		t.Errorf("TE of single-unit map = %v, want 0", got)
	}
}

func TestAssign(t *testing.T) {
	m := lineMap(t)
	got := m.AssignView(rowsView(t, [][]float64{{-1}, {6}, {100}}))
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AssignView[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestUMatrix(t *testing.T) {
	m := lineMap(t)
	u := m.UMatrix()
	if len(u) != 1 || len(u[0]) != 3 {
		t.Fatalf("UMatrix shape = %dx%d", len(u), len(u[0]))
	}
	// Unit 0 has one neighbor at distance 5; unit 1 two at distance 5.
	if math.Abs(u[0][0]-5) > 1e-12 || math.Abs(u[0][1]-5) > 1e-12 || math.Abs(u[0][2]-5) > 1e-12 {
		t.Errorf("UMatrix = %v", u)
	}
}

func TestUMatrixMarksBoundary(t *testing.T) {
	// Two tight groups of columns far apart: the boundary column pair gets
	// a much higher U-value than the interior pairs.
	m, _ := New(1, 4, 1)
	_ = m.SetWeight(0, []float64{0})
	_ = m.SetWeight(1, []float64{0.1})
	_ = m.SetWeight(2, []float64{10})
	_ = m.SetWeight(3, []float64{10.1})
	u := m.UMatrix()
	if !(u[0][1] > u[0][0] && u[0][2] > u[0][3]) {
		t.Errorf("UMatrix boundary not elevated: %v", u)
	}
}

func TestComponentPlane(t *testing.T) {
	m, _ := New(2, 2, 2)
	_ = m.SetWeight(0, []float64{1, 10})
	_ = m.SetWeight(1, []float64{2, 20})
	_ = m.SetWeight(2, []float64{3, 30})
	_ = m.SetWeight(3, []float64{4, 40})
	p0 := m.ComponentPlane(0)
	p1 := m.ComponentPlane(1)
	if p0[0][0] != 1 || p0[1][1] != 4 {
		t.Errorf("ComponentPlane(0) = %v", p0)
	}
	if p1[0][1] != 20 || p1[1][0] != 30 {
		t.Errorf("ComponentPlane(1) = %v", p1)
	}
}

func TestUMatrixSymmetryProperty(t *testing.T) {
	// For any map, the U-matrix entry of a unit is the mean of symmetric
	// pairwise distances, so the total over all units of (value * degree)
	// counts each edge exactly twice.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		rows := 1 + rng.Intn(5)
		cols := 1 + rng.Intn(5)
		m, _ := New(rows, cols, 3)
		data := [][]float64{{0, 0, 0}, {1, 1, 1}}
		_ = m.InitRandomUniform([][]float64{{-1, -1, -1}, {1, 1, 1}}, rng)
		_ = data
		u := m.UMatrix()
		var weightedTotal float64
		var edgeTotal float64
		var buf [4]int
		for i := 0; i < m.Units(); i++ {
			r, c := m.Coords(i)
			deg := len(m.Neighbors(i, buf[:0]))
			weightedTotal += u[r][c] * float64(deg)
			for _, j := range m.Neighbors(i, buf[:0]) {
				edgeTotal += dist(m.Weight(i), m.Weight(j))
			}
		}
		if math.Abs(weightedTotal-edgeTotal) > 1e-9 {
			t.Fatalf("U-matrix edge accounting mismatch: %v vs %v", weightedTotal, edgeTotal)
		}
	}
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
