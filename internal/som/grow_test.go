package som

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// cloneMap returns a copy of m with its own weight storage.
func cloneMap(t *testing.T, m *Map) *Map {
	t.Helper()
	c, err := New(m.Rows(), m.Cols(), m.Dim())
	if err != nil {
		t.Fatal(err)
	}
	copy(c.flat, m.flat)
	return c
}

// numberedMap builds a rows x cols map of dim 1 whose unit i holds weight
// [i], making position tracking after insertion easy.
func numberedMap(t *testing.T, rows, cols int) *Map {
	t.Helper()
	m, err := New(rows, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Units(); i++ {
		_ = m.SetWeight(i, []float64{float64(i)})
	}
	return m
}

func TestInsertRowBetween(t *testing.T) {
	m := numberedMap(t, 2, 2) // weights: [0 1; 2 3]
	if err := m.InsertRowBetween(0); err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape after insert = %dx%d", m.Rows(), m.Cols())
	}
	// New middle row should be the average of rows 0 and 2.
	wantMiddle := [][]float64{{1}, {2}} // (0+2)/2, (1+3)/2
	for c := 0; c < 2; c++ {
		if !approxEqual(m.WeightAt(1, c), wantMiddle[c], 1e-12) {
			t.Errorf("inserted unit (1,%d) = %v, want %v", c, m.WeightAt(1, c), wantMiddle[c])
		}
	}
	// Old rows preserved.
	if m.WeightAt(0, 0)[0] != 0 || m.WeightAt(0, 1)[0] != 1 {
		t.Error("top row corrupted")
	}
	if m.WeightAt(2, 0)[0] != 2 || m.WeightAt(2, 1)[0] != 3 {
		t.Error("bottom row corrupted")
	}
}

func TestInsertColBetween(t *testing.T) {
	m := numberedMap(t, 2, 2) // [0 1; 2 3]
	if err := m.InsertColBetween(0); err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape after insert = %dx%d", m.Rows(), m.Cols())
	}
	if got := m.WeightAt(0, 1)[0]; got != 0.5 {
		t.Errorf("inserted (0,1) = %v, want 0.5", got)
	}
	if got := m.WeightAt(1, 1)[0]; got != 2.5 {
		t.Errorf("inserted (1,1) = %v, want 2.5", got)
	}
	if m.WeightAt(0, 0)[0] != 0 || m.WeightAt(0, 2)[0] != 1 {
		t.Error("first row columns corrupted")
	}
	if m.WeightAt(1, 0)[0] != 2 || m.WeightAt(1, 2)[0] != 3 {
		t.Error("second row columns corrupted")
	}
}

func TestInsertBounds(t *testing.T) {
	m := numberedMap(t, 2, 2)
	if err := m.InsertRowBetween(-1); !errors.Is(err, ErrBadShape) {
		t.Errorf("InsertRowBetween(-1) err = %v", err)
	}
	if err := m.InsertRowBetween(1); !errors.Is(err, ErrBadShape) {
		t.Errorf("InsertRowBetween(last) err = %v", err)
	}
	if err := m.InsertColBetween(1); !errors.Is(err, ErrBadShape) {
		t.Errorf("InsertColBetween(last) err = %v", err)
	}
}

func TestGrowBetweenVertical(t *testing.T) {
	m := numberedMap(t, 3, 2)
	e := m.Index(1, 0)
	d := m.Index(2, 0)
	if err := m.GrowBetween(e, d); err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 4 {
		t.Errorf("rows = %d, want 4", m.Rows())
	}
	// The inserted row sits between original rows 1 and 2: weights avg of
	// 2 and 4 => 3 at column 0.
	if got := m.WeightAt(2, 0)[0]; got != 3 {
		t.Errorf("inserted weight = %v, want 3", got)
	}
}

func TestGrowBetweenHorizontal(t *testing.T) {
	m := numberedMap(t, 2, 3)
	e := m.Index(0, 2)
	d := m.Index(0, 1)
	if err := m.GrowBetween(e, d); err != nil {
		t.Fatal(err)
	}
	if m.Cols() != 4 {
		t.Errorf("cols = %d, want 4", m.Cols())
	}
	if got := m.WeightAt(0, 2)[0]; got != 1.5 {
		t.Errorf("inserted weight = %v, want 1.5", got)
	}
}

func TestGrowBetweenRejectsNonNeighbors(t *testing.T) {
	m := numberedMap(t, 3, 3)
	if err := m.GrowBetween(m.Index(0, 0), m.Index(2, 2)); !errors.Is(err, ErrBadShape) {
		t.Errorf("GrowBetween diagonal err = %v", err)
	}
	if err := m.GrowBetween(0, 0); !errors.Is(err, ErrBadShape) {
		t.Errorf("GrowBetween self err = %v", err)
	}
	if err := m.GrowBetween(-1, 0); !errors.Is(err, ErrBadShape) {
		t.Errorf("GrowBetween out-of-range err = %v", err)
	}
}

func TestPropInsertPreservesExistingWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 50; trial++ {
		rows := 2 + rng.Intn(4)
		cols := 2 + rng.Intn(4)
		dim := 1 + rng.Intn(4)
		m, _ := New(rows, cols, dim)
		for i := 0; i < m.Units(); i++ {
			w := make([]float64, dim)
			for d := range w {
				w[d] = rng.NormFloat64()
			}
			_ = m.SetWeight(i, w)
		}
		before := cloneMap(t, m)
		r := rng.Intn(rows - 1)
		if err := m.InsertRowBetween(r); err != nil {
			t.Fatal(err)
		}
		// All original units must still exist with identical weights.
		for origRow := 0; origRow < rows; origRow++ {
			newRow := origRow
			if origRow > r {
				newRow = origRow + 1
			}
			for c := 0; c < cols; c++ {
				if !slices.Equal(before.WeightAt(origRow, c), m.WeightAt(newRow, c)) {
					t.Fatalf("trial %d: original unit (%d,%d) changed after row insert", trial, origRow, c)
				}
			}
		}
	}
}

func TestPropInsertedWeightsAreMidpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 50; trial++ {
		rows := 2 + rng.Intn(3)
		cols := 2 + rng.Intn(3)
		m, _ := New(rows, cols, 2)
		for i := 0; i < m.Units(); i++ {
			_ = m.SetWeight(i, []float64{rng.NormFloat64(), rng.NormFloat64()})
		}
		c := rng.Intn(cols - 1)
		before := cloneMap(t, m)
		if err := m.InsertColBetween(c); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			left := before.WeightAt(r, c)
			right := before.WeightAt(r, c+1)
			mid := make([]float64, len(left))
			for d := range mid {
				mid[d] = 0.5*left[d] + 0.5*right[d]
			}
			if !approxEqual(m.WeightAt(r, c+1), mid, 1e-12) {
				t.Fatalf("trial %d: inserted column not midpoint at row %d", trial, r)
			}
		}
	}
}
