package vecmath

import "fmt"

// Matrix is a dense row-major float64 matrix backed by one contiguous
// slice: row i occupies data[i*cols : (i+1)*cols]. It is the storage type
// of the training dataplane — the same layout the inference batch path and
// the SOM weight storage use — so a whole training set streams as a single
// allocation with no per-row pointer chasing.
//
// A Matrix value is a view header (slice + shape); copying it aliases the
// same storage. The zero Matrix has no rows and is valid for reading.
type Matrix struct {
	data       []float64
	rows, cols int
}

// NewMatrix returns a zero-filled rows x cols matrix.
func NewMatrix(rows, cols int) (Matrix, error) {
	if rows < 0 || cols < 1 {
		return Matrix{}, fmt.Errorf("vecmath: new %dx%d matrix: %w", rows, cols, ErrBadShape)
	}
	return Matrix{data: make([]float64, rows*cols), rows: rows, cols: cols}, nil
}

// MatrixOver wraps an existing flat row-major slice as a rows x cols
// matrix without copying. The slice must hold at least rows*cols values;
// the matrix aliases it, so later writes through either view are shared.
func MatrixOver(data []float64, rows, cols int) (Matrix, error) {
	if rows < 0 || cols < 1 {
		return Matrix{}, fmt.Errorf("vecmath: matrix over %dx%d: %w", rows, cols, ErrBadShape)
	}
	if len(data) < rows*cols {
		return Matrix{}, fmt.Errorf("vecmath: matrix over %d values, want >= %d*%d: %w",
			len(data), rows, cols, ErrBadShape)
	}
	return Matrix{data: data[:rows*cols], rows: rows, cols: cols}, nil
}

// MatrixFromRows copies a slice-of-slices data set into a fresh contiguous
// matrix. Every row must have the same, non-zero length.
func MatrixFromRows(rows [][]float64) (Matrix, error) {
	if len(rows) == 0 {
		return Matrix{}, ErrEmpty
	}
	cols := len(rows[0])
	if cols < 1 {
		return Matrix{}, fmt.Errorf("vecmath: matrix from zero-length rows: %w", ErrBadShape)
	}
	m := Matrix{data: make([]float64, len(rows)*cols), rows: len(rows), cols: cols}
	for i, r := range rows {
		if len(r) != cols {
			return Matrix{}, fmt.Errorf("vecmath: row %d has length %d, want %d: %w",
				i, len(r), cols, ErrLengthMismatch)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Rows returns the row count.
func (m Matrix) Rows() int { return m.rows }

// Cols returns the column count (the feature dimension).
func (m Matrix) Cols() int { return m.cols }

// Row returns row i as a capacity-capped view into the backing array. It
// aliases matrix storage: valid for reading, and writes are shared with
// every other view of the matrix.
func (m Matrix) Row(i int) []float64 {
	o := i * m.cols
	return m.data[o : o+m.cols : o+m.cols]
}

// Data returns the contiguous row-major backing slice (row i at
// [i*Cols, (i+1)*Cols)). It aliases live storage.
func (m Matrix) Data() []float64 { return m.data }

// View returns the all-rows view of the matrix.
func (m Matrix) View() View { return View{m: m} }

// Subset returns the zero-copy view of the rows selected by idx, in idx
// order (indices may repeat). The index slice is retained, not copied;
// callers must not mutate it while the view is in use. Indices are not
// validated here — out-of-range entries panic on first Row access; callers
// holding untrusted indices should validate with CheckIndex first.
func (m Matrix) Subset(idx []int) View { return View{m: m, idx: idx} }

// CheckIndex validates that every entry of idx names a matrix row.
func (m Matrix) CheckIndex(idx []int) error {
	for k, i := range idx {
		if i < 0 || i >= m.rows {
			return fmt.Errorf("vecmath: index %d at position %d outside %d rows: %w",
				i, k, m.rows, ErrBadShape)
		}
	}
	return nil
}

// View is a zero-copy row-subset view of a Matrix: the whole matrix when
// idx is nil, otherwise the rows named by idx in idx order. Views are the
// unit of work of the training dataplane — a GHSOM child map trains on a
// View carrying only an index slice instead of a rebuilt [][]float64
// subset, so hierarchical expansion never copies feature data.
type View struct {
	m   Matrix
	idx []int
}

// Rows returns the number of rows in the view.
func (v View) Rows() int {
	if v.idx != nil {
		return len(v.idx)
	}
	return v.m.rows
}

// Dim returns the feature dimension (the matrix column count).
func (v View) Dim() int { return v.m.cols }

// Row returns view row i, aliasing matrix storage.
func (v View) Row(i int) []float64 {
	if v.idx != nil {
		return v.m.Row(v.idx[i])
	}
	return v.m.Row(i)
}

// Index returns the matrix row index behind view row i.
func (v View) Index(i int) int {
	if v.idx != nil {
		return v.idx[i]
	}
	return i
}

// Slice returns the zero-copy view of the contiguous view-relative row
// range [lo, hi). Unlike Subview it allocates nothing for any view: an
// indexed view reslices its index, and a whole-matrix view narrows to a
// sub-matrix over the same backing rows. It is the work-splitting
// primitive of the batched BMU engine — workers call it to carve a view
// into per-worker ranges whose Row data still aliases the original
// storage.
//
// Caveat: on a whole-matrix view the narrowed result is its own
// sub-matrix, so Index reports positions relative to the slice, not the
// original matrix (an indexed view keeps original indices). Callers
// that need to map sliced rows back to matrix rows must add lo
// themselves; the BMU engine only reads Row/Rows/Dim.
func (v View) Slice(lo, hi int) View {
	if v.idx != nil {
		return View{m: v.m, idx: v.idx[lo:hi]}
	}
	sub := Matrix{data: v.m.data[lo*v.m.cols : hi*v.m.cols], rows: hi - lo, cols: v.m.cols}
	return View{m: sub}
}

// Subview returns the view of the view-relative rows in rows, composing
// index indirections so the result still points straight into the backing
// matrix. The rows slice is retained when the view has no indirection of
// its own.
func (v View) Subview(rows []int) View {
	if v.idx == nil {
		return View{m: v.m, idx: rows}
	}
	idx := make([]int, len(rows))
	for k, i := range rows {
		idx[k] = v.idx[i]
	}
	return View{m: v.m, idx: idx}
}

// Gather returns the view's rows, in view order, as one contiguous
// matrix: the backing matrix itself for a whole-matrix view, otherwise a
// fresh copy. Code that passes over the same subset many times gathers
// it once, so every later pass streams rows in memory order instead of
// chasing the index.
func (v View) Gather() Matrix {
	if v.idx == nil {
		return v.m
	}
	cols := v.m.cols
	out := Matrix{data: make([]float64, len(v.idx)*cols), rows: len(v.idx), cols: cols}
	for k, i := range v.idx {
		copy(out.data[k*cols:(k+1)*cols], v.m.data[i*cols:(i+1)*cols])
	}
	return out
}

// Mean returns the element-wise mean of the view's rows.
func (v View) Mean() ([]float64, error) {
	n := v.Rows()
	if n == 0 {
		return nil, ErrEmpty
	}
	out := make([]float64, v.m.cols)
	for i := 0; i < n; i++ {
		row := v.Row(i)
		for d, x := range row {
			out[d] += x
		}
	}
	inv := 1 / float64(n)
	for d := range out {
		out[d] *= inv
	}
	return out, nil
}
