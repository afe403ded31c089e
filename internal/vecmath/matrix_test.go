package vecmath

import (
	"errors"
	"testing"
)

func TestMatrixFromRowsAndRowViews(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	m, err := MatrixFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Rows(), m.Cols())
	}
	for i, want := range rows {
		if !Equal(m.Row(i), want, 0) {
			t.Errorf("row %d = %v, want %v", i, m.Row(i), want)
		}
	}
	// Row views alias the backing array.
	m.Row(1)[0] = 30
	if m.Data()[2] != 30 {
		t.Error("Row view does not alias Data")
	}
	// The source rows were copied, not aliased.
	if rows[1][0] != 3 {
		t.Error("MatrixFromRows aliased its input")
	}
}

func TestMatrixFromRowsErrors(t *testing.T) {
	if _, err := MatrixFromRows(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := MatrixFromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("ragged err = %v", err)
	}
	if _, err := MatrixFromRows([][]float64{{}}); !errors.Is(err, ErrBadShape) {
		t.Errorf("zero-width err = %v", err)
	}
}

func TestMatrixOver(t *testing.T) {
	backing := []float64{1, 2, 3, 4, 5, 6}
	m, err := MatrixOver(backing, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(m.Row(1), []float64{4, 5, 6}, 0) {
		t.Errorf("row 1 = %v", m.Row(1))
	}
	// Zero-copy: writes through the matrix reach the original slice.
	m.Row(0)[0] = 10
	if backing[0] != 10 {
		t.Error("MatrixOver copied instead of aliasing")
	}
	if _, err := MatrixOver(backing, 3, 3); !errors.Is(err, ErrBadShape) {
		t.Errorf("short-backing err = %v", err)
	}
}

func TestViewSubsetAndSubview(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{0}, {1}, {2}, {3}, {4}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	all := m.View()
	if all.Rows() != 6 || all.Dim() != 1 {
		t.Fatalf("all view shape %dx%d", all.Rows(), all.Dim())
	}
	sub := m.Subset([]int{5, 1, 3})
	if sub.Rows() != 3 {
		t.Fatalf("subset rows = %d", sub.Rows())
	}
	for k, want := range []float64{5, 1, 3} {
		if sub.Row(k)[0] != want {
			t.Errorf("subset row %d = %v, want %v", k, sub.Row(k)[0], want)
		}
		if sub.Index(k) != int(want) {
			t.Errorf("subset index %d = %d, want %d", k, sub.Index(k), int(want))
		}
	}
	// Subview composes indirections down to matrix rows.
	subsub := sub.Subview([]int{2, 0})
	if subsub.Row(0)[0] != 3 || subsub.Row(1)[0] != 5 {
		t.Errorf("subview rows = %v, %v, want 3, 5", subsub.Row(0)[0], subsub.Row(1)[0])
	}
	if subsub.Index(0) != 3 || subsub.Index(1) != 5 {
		t.Errorf("subview indices = %d, %d", subsub.Index(0), subsub.Index(1))
	}
	// Subview of an all-rows view is a plain subset.
	direct := all.Subview([]int{4})
	if direct.Row(0)[0] != 4 || direct.Index(0) != 4 {
		t.Error("subview of all-rows view broken")
	}
}

func TestViewMean(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 10}, {3, 30}, {5, 50}})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := m.View().Mean()
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(mean, []float64{3, 30}, 1e-15) {
		t.Errorf("mean = %v", mean)
	}
	sub, err := m.Subset([]int{0, 2}).Mean()
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(sub, []float64{3, 30}, 1e-15) {
		t.Errorf("subset mean = %v", sub)
	}
	if _, err := m.Subset([]int{}).Mean(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty-view mean err = %v", err)
	}
}

func TestMatrixCheckIndex(t *testing.T) {
	m, _ := NewMatrix(4, 2)
	if err := m.CheckIndex([]int{0, 3, 2}); err != nil {
		t.Errorf("valid index rejected: %v", err)
	}
	if err := m.CheckIndex(nil); err != nil {
		t.Errorf("nil index rejected: %v", err)
	}
	if err := m.CheckIndex([]int{0, 4}); !errors.Is(err, ErrBadShape) {
		t.Errorf("out-of-range err = %v", err)
	}
	if err := m.CheckIndex([]int{-1}); !errors.Is(err, ErrBadShape) {
		t.Errorf("negative err = %v", err)
	}
}

// TestViewGather checks Gather: a whole-matrix view returns the backing
// matrix itself, and an index view a fresh contiguous copy of its rows
// in index order.
func TestViewGather(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if g := m.View().Gather(); &g.Data()[0] != &m.Data()[0] || g.Rows() != 3 {
		t.Error("whole-matrix Gather copied the rows")
	}
	g := m.Subset([]int{2, 0, 2}).Gather()
	want := []float64{5, 6, 1, 2, 5, 6}
	if g.Rows() != 3 || g.Cols() != 2 || !Equal(g.Data(), want, 0) {
		t.Fatalf("subset Gather = %dx%d %v, want 3x2 %v", g.Rows(), g.Cols(), g.Data(), want)
	}
	g.Data()[0] = -1
	if m.Row(2)[0] != 5 {
		t.Error("subset Gather aliases the source matrix")
	}
}
