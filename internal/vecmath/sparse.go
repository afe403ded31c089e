package vecmath

import (
	"math"
	"slices"
)

// Sparse holds the nonzero entries of a row set in compressed sparse row
// form: row i's entries are col[off[i]:off[i+1]] (ascending column
// indices) with values val[off[i]:off[i+1]]. An entry is stored unless it
// compares equal to zero, so ±0 are dropped while NaN and ±Inf are kept.
// It is the sparse twin of a Matrix that the training dataplane keeps
// beside the dense rows: encoded traffic is mostly one-hot and zero-count
// columns, and the BMU scores and class sums need only the nonzeros.
//
// Dropping ±0 never changes a sum that starts at +0: x + (±0) = x for any
// nonzero x, and under round-to-nearest a sum starting at +0 can never
// become −0 (a sum of nonzero terms that cancels exactly is +0), so
// +0 + (±0) = +0 as well.
//
// A Sparse value is a header over shared storage; Slice narrows it
// without copying. The zero Sparse has no rows.
type Sparse struct {
	off []int
	col []int32
	val []float64
}

// Rows returns the row count.
func (s Sparse) Rows() int {
	if len(s.off) == 0 {
		return 0
	}
	return len(s.off) - 1
}

// Row returns row i's column indices and values, aliasing the storage.
func (s Sparse) Row(i int) ([]int32, []float64) {
	lo, hi := s.off[i], s.off[i+1]
	return s.col[lo:hi:hi], s.val[lo:hi:hi]
}

// AddRow adds row i into dst (dst[j] += x_j over the row's nonzeros).
// When dst is a sum that started at +0 and took rows in order, the
// result has the bits of adding the dense rows: the skipped ±0 terms
// cannot change it.
func (s Sparse) AddRow(dst []float64, i int) {
	cols, vals := s.Row(i)
	for k, j := range cols {
		dst[j] += vals[k]
	}
}

// Slice returns the zero-copy view of rows [lo, hi).
func (s Sparse) Slice(lo, hi int) Sparse {
	return Sparse{off: s.off[lo : hi+1], col: s.col, val: s.val}
}

// reset empties s for refilling, keeping its storage.
func (s *Sparse) reset() {
	s.off = append(s.off[:0], 0)
	s.col = s.col[:0]
	s.val = s.val[:0]
}

// appendRow appends row's nonzero entries as the next row. The store is
// unconditional and only the cursor advance depends on the entry, so the
// loop has no data-dependent branch.
func (s *Sparse) appendRow(row []float64) {
	k := len(s.col)
	s.col = slices.Grow(s.col, len(row))[:k+len(row)]
	s.val = slices.Grow(s.val, len(row))[:k+len(row)]
	col, val := s.col[k:], s.val[k:]
	w := 0
	for j, x := range row {
		col[w] = int32(j)
		val[w] = x
		var nz int
		if math.Float64bits(x)<<1 != 0 { // not ±0
			nz = 1
		}
		w += nz
	}
	s.col, s.val = s.col[:k+w], s.val[:k+w]
	s.off = append(s.off, k+w)
}

// sparseCapHint is the nonzero share a fresh Sparse reserves room for,
// in sixteenths of the dense entry count: encoded traffic rows hold
// about a fifth of their entries as nonzeros, and denser data grows the
// storage by doubling.
const sparseCapHint = 4

// GatherSparse returns the view's rows, in view order, as one contiguous
// matrix — the backing matrix itself for a whole-matrix view, otherwise
// a fresh copy — together with their nonzero entries, both built in one
// pass over the rows. Code that passes over the same subset many times
// gathers it once, so every later pass streams rows in memory order
// instead of chasing the index.
func (v View) GatherSparse() (Matrix, Sparse) {
	n, cols := v.Rows(), v.m.cols
	out := v.m
	if v.idx != nil {
		out = Matrix{data: make([]float64, n*cols), rows: n, cols: cols}
	}
	hint := n*cols*sparseCapHint/16 + cols
	s := Sparse{
		off: make([]int, 1, n+1),
		col: make([]int32, 0, hint),
		val: make([]float64, 0, hint),
	}
	for i := 0; i < n; i++ {
		row := v.Row(i)
		if v.idx != nil {
			copy(out.data[i*cols:(i+1)*cols], row)
		}
		s.appendRow(row)
	}
	return out, s
}
