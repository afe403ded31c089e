// Package som implements the classic Kohonen Self-Organizing Map on a
// rectangular grid: online and batch training, neighborhood kernels,
// parameter decay schedules, and the standard map-quality measures
// (quantization error, topographic error, U-matrix).
//
// The package is the substrate under the GHSOM in internal/core: a GHSOM is
// a hierarchy of these maps, grown row/column-wise. It is also usable as a
// flat-SOM baseline detector on its own.
package som

import (
	"errors"
	"fmt"

	"ghsom/internal/vecmath"
)

// Errors shared by the package.
var (
	// ErrNoData is returned when an operation requires at least one data
	// vector.
	ErrNoData = errors.New("som: no data")
	// ErrDimMismatch is returned when a data vector does not match the
	// map's weight dimension.
	ErrDimMismatch = errors.New("som: dimension mismatch")
	// ErrBadShape is returned when a map shape or index is invalid.
	ErrBadShape = errors.New("som: invalid shape")
)

// Map is a rectangular self-organizing map. Units are stored row-major:
// unit (r, c) lives at index r*Cols + c. All weight vectors live in one
// contiguous row-major backing array (unit i occupies flat[i*Dim :
// (i+1)*Dim]), so BMU search streams a single allocation instead of
// pointer-chasing one heap object per unit. Weight vectors are owned by
// the map; callers must not retain references across training or growth
// calls (see Weight).
type Map struct {
	rows, cols, dim int
	flat            []float64 // rows*cols*dim, unit-major then dimension
	parallelism     int       // batch-op worker knob; <= 0 means GOMAXPROCS

	// version counts weight-arena mutations: every mutating method
	// (SetWeight, the Init* family, training updates, and the growth
	// operations, which also reallocate the arena) bumps it. It is the
	// staleness token of the norm cache below — see Version.
	version uint64
	// norms caches the per-unit squared weight norms for the blocked BMU
	// engine, keyed by version. The cache is an atomic snapshot
	// (lock-free reads, copy-on-invalidate), so concurrent read-only
	// batch operations (AssignView, AssignFlat, UnitErrorsView) on a
	// trained map never serialize on it. Weight mutation itself requires
	// exclusive access, exactly as it always has.
	norms vecmath.NormCache
}

// New returns an untrained map of the given shape with zero-valued weights.
// Use one of the Init* methods (or set weights via SetWeight) before
// training.
func New(rows, cols, dim int) (*Map, error) {
	if rows < 1 || cols < 1 || dim < 1 {
		return nil, fmt.Errorf("new %dx%d map of dim %d: %w", rows, cols, dim, ErrBadShape)
	}
	return &Map{rows: rows, cols: cols, dim: dim, flat: make([]float64, rows*cols*dim), version: 1}, nil
}

// Version returns the weight-arena mutation counter. Every mutation made
// through the map's API — SetWeight, the Init* initializers, training
// updates (batch rank-1 updates and online MoveToward steps), and the
// reallocating growth operations — increments it, which is what makes a
// stale norm cache impossible: the blocked BMU engine's NormCache
// recomputes whenever the version it sees differs from the one it cached
// (see internal/vecmath). Writes through slices returned by
// Weight/WeightAt/Weights bypass the counter — the documented contract
// has always been to mutate via SetWeight only.
func (m *Map) Version() uint64 { return m.version }

// touch records a weight mutation.
func (m *Map) touch() { m.version++ }

// syncedNorms returns the up-to-date per-unit squared-norm table. Safe
// for concurrent callers on a map that is not being mutated: the cache
// read is a single atomic snapshot load, so the steady-state BMU hot
// path acquires no lock (concurrent first-touch callers may redundantly
// recompute and republish the same table, which is benign).
func (m *Map) syncedNorms() []float64 {
	return m.norms.Sync(m.flat, m.dim, m.version)
}

// Rows returns the number of grid rows.
func (m *Map) Rows() int { return m.rows }

// Cols returns the number of grid columns.
func (m *Map) Cols() int { return m.cols }

// Dim returns the weight-vector dimension.
func (m *Map) Dim() int { return m.dim }

// Units returns the total number of units (Rows*Cols).
func (m *Map) Units() int { return m.rows * m.cols }

// Index converts grid coordinates to a unit index. It does not validate
// bounds; use InBounds for that.
func (m *Map) Index(r, c int) int { return r*m.cols + c }

// Coords converts a unit index back to grid coordinates.
func (m *Map) Coords(i int) (r, c int) { return i / m.cols, i % m.cols }

// InBounds reports whether (r, c) is a valid grid coordinate.
func (m *Map) InBounds(r, c int) bool {
	return r >= 0 && r < m.rows && c >= 0 && c < m.cols
}

// Weight returns the weight vector of unit i as a strided view into the
// map's contiguous backing array. The returned slice aliases map storage:
// it is valid for reading; mutate only via SetWeight.
//
// Invalidation: any growth operation (InsertRowBetween, InsertColBetween,
// GrowBetween) reallocates the backing array. Slices returned by Weight or
// WeightAt before a growth call keep pointing at the old, abandoned array —
// they neither observe nor affect the grown map. Re-fetch weight views
// after every growth (and, defensively, after any training call).
func (m *Map) Weight(i int) []float64 {
	o := i * m.dim
	return m.flat[o : o+m.dim : o+m.dim]
}

// WeightAt returns the weight vector of unit (r, c), aliasing map storage.
// The invalidation rules of Weight apply.
func (m *Map) WeightAt(r, c int) []float64 { return m.Weight(m.Index(r, c)) }

// Weights returns the map's contiguous row-major backing array (unit i at
// [i*Dim, (i+1)*Dim)). It aliases live storage and is invalidated by growth
// operations exactly like Weight; treat it as read-only.
func (m *Map) Weights() []float64 { return m.flat }

// SetWeight copies w into unit i's weight vector.
func (m *Map) SetWeight(i int, w []float64) error {
	if len(w) != m.dim {
		return fmt.Errorf("set weight of length %d on dim-%d map: %w", len(w), m.dim, ErrDimMismatch)
	}
	copy(m.Weight(i), w)
	m.touch()
	return nil
}

// SetParallelism sets the worker bound used by the map's batch operations
// (AssignView, UnitErrorsView, UnitErrorsSet, TopographicError;
// training reads TrainConfig.Parallelism instead): 0 (the default) means
// runtime.GOMAXPROCS, 1 forces serial execution, n > 1 caps the fan-out at
// n goroutines. Results are bit-for-bit identical for every setting; see
// internal/parallel.
func (m *Map) SetParallelism(p int) { m.parallelism = p }

// Parallelism returns the configured batch-operation worker bound.
func (m *Map) Parallelism() int { return m.parallelism }

// GridDistance2 returns the squared Euclidean distance between units i and
// j measured on the grid lattice (not in weight space).
func (m *Map) GridDistance2(i, j int) float64 {
	ri, ci := m.Coords(i)
	rj, cj := m.Coords(j)
	dr := float64(ri - rj)
	dc := float64(ci - cj)
	return dr*dr + dc*dc
}

// AreGridNeighbors reports whether units i and j are direct 4-neighbors on
// the lattice.
func (m *Map) AreGridNeighbors(i, j int) bool {
	ri, ci := m.Coords(i)
	rj, cj := m.Coords(j)
	dr := ri - rj
	if dr < 0 {
		dr = -dr
	}
	dc := ci - cj
	if dc < 0 {
		dc = -dc
	}
	return dr+dc == 1
}

// Neighbors returns the direct 4-neighborhood unit indices of unit i,
// appended to dst (which may be nil). At most four indices are appended.
func (m *Map) Neighbors(i int, dst []int) []int {
	r, c := m.Coords(i)
	if m.InBounds(r-1, c) {
		dst = append(dst, m.Index(r-1, c))
	}
	if m.InBounds(r+1, c) {
		dst = append(dst, m.Index(r+1, c))
	}
	if m.InBounds(r, c-1) {
		dst = append(dst, m.Index(r, c-1))
	}
	if m.InBounds(r, c+1) {
		dst = append(dst, m.Index(r, c+1))
	}
	return dst
}

// Clone returns a deep copy of the map. The clone starts with a fresh
// version counter and an empty norm cache of its own.
func (m *Map) Clone() *Map {
	out := &Map{rows: m.rows, cols: m.cols, dim: m.dim, parallelism: m.parallelism, version: 1}
	out.flat = make([]float64, len(m.flat))
	copy(out.flat, m.flat)
	return out
}

// checkData validates a data set against the map dimension.
func (m *Map) checkData(data [][]float64) error {
	if len(data) == 0 {
		return ErrNoData
	}
	for i, x := range data {
		if len(x) != m.dim {
			return fmt.Errorf("data row %d has dim %d, map dim %d: %w", i, len(x), m.dim, ErrDimMismatch)
		}
	}
	return nil
}
