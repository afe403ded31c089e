package vecmath

import (
	"math"
	"sync/atomic"
)

// This file is the training BMU engine: batched best-matching-unit search
// on the expanded-form identity (see gemm.go) scored from each record's
// nonzero entries. A record row x with nonzero columns J scores every
// unit at once as
//
//	dot = Σ_{j∈J} x_j · Wᵀ[j]
//
// where Wᵀ[j] is row j of the transposed weight block — one unit per
// lane, padded to a whole number of 4-lane vectors — so the work per
// record is |J|·units multiply-adds instead of dim·units. Encoded traffic
// rows hold 7–25 nonzeros of 68 entries. A dense row is a row whose
// nonzeros are all of its entries; there is one scoring path.
//
// The kernel turns the dot row into expanded distances and, in the same
// pass, the smallest and second-smallest of them and the lowest lane at
// the smallest; a unique candidate within the margin is the winner, and
// otherwise the canonical settle (settle) judges every candidate, exactly
// as ExpandSettleRel describes, so the result is bit-for-bit
// ArgMinDistance.

// Codebook is the derived search form of one weight state of a flat
// row-major arena: the squared norm of every unit, their maximum, and
// the transposed, lane-padded weight block the sparse scores read. It is
// immutable once built and may be shared read-only across goroutines.
type Codebook struct {
	dim, units int
	// ld is units rounded up to a multiple of 4: the row stride of wt and
	// the length of bias.
	ld    int
	norms []float64 // ‖w_u‖², length units
	maxN  float64   // MaxOrZero(norms)
	// wt is the dim×ld transposed block: wt[j*ld+u] = flat[u*dim+j], zero
	// in the padding lanes.
	wt []float64
	// bias is norms padded to ld lanes with +Inf, so a padding lane's
	// expanded distance is +Inf and never a candidate.
	bias []float64
}

// NewCodebook derives the codebook of the complete dim-wide rows of flat.
func NewCodebook(flat []float64, dim int) *Codebook {
	c := new(Codebook)
	c.Build(flat, dim)
	return c
}

// Build derives c from the complete dim-wide rows of flat in place,
// reusing c's storage (norms, bias and the transposed block share one
// allocation). A codebook must not be read while it rebuilds: an owner
// that rewrites its weights every pass — a training loop — rebuilds one
// codebook, and a codebook shared across callers comes from
// NormCache.Sync, which never rebuilds a published one.
func (c *Codebook) Build(flat []float64, dim int) {
	units := 0
	if dim > 0 {
		units = len(flat) / dim
	}
	ld := (units + 3) &^ 3
	c.dim, c.units, c.ld = dim, units, ld
	buf := grow(c.norms[:cap(c.norms)], units+ld+dim*ld)
	SquaredNorms(flat, dim, buf[:0:units]) // fills buf[:units] in place
	c.norms = buf[:units]                  // keeps the whole buffer's capacity
	c.maxN = MaxOrZero(c.norms)
	c.bias = buf[units : units+ld]
	copy(c.bias, c.norms)
	c.wt = buf[units+ld:]
	for u := units; u < ld; u++ {
		c.bias[u] = math.Inf(1)
		for j := 0; j < dim; j++ {
			c.wt[j*ld+u] = 0
		}
	}
	for u := 0; u < units; u++ {
		for j, w := range flat[u*dim : (u+1)*dim] {
			c.wt[j*ld+u] = w
		}
	}
}

// grow returns s resized to n, reallocating only when it is too short.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// codebookSnapshot is one immutable generation of a NormCache: the
// codebook of a specific (version, dim, units) arena state. Snapshots are
// never mutated after publication — invalidation builds a fresh one — so
// readers holding a loaded snapshot are always consistent.
type codebookSnapshot struct {
	version uint64
	cb      *Codebook
}

// NormCache is a versioned, read-mostly cache of the Codebook of a flat
// row-major weight arena — the ‖w‖² norms and the transposed block of
// the expanded-form BMU search. The arena owner holds one counter that it
// bumps on every weight mutation (see som.Map.Version); Sync rebuilds the
// codebook if and only if the presented version, dimension, or row count
// differs from the cached one, which makes a stale cache structurally
// impossible as long as every mutation bumps the counter — including
// reallocating growth, where the new arena arrives with a new version.
//
// The cache holds one atomic snapshot pointer and copies on invalidate:
// the steady-state read path (trained model, unchanged version) is one
// atomic load and three comparisons — no mutex, so any number of
// concurrent batch searches share the codebook without contending. On a
// version change each syncing goroutine builds a private replacement and
// publishes it with an atomic store; concurrent syncs of the same state
// may race to publish, but every candidate snapshot is derived from
// identical inputs, so whichever lands is correct and the transient
// duplicate work is bounded by the worker count. Mutating the arena
// concurrently with Sync remains the caller's race, exactly as it is for
// the search itself. The zero NormCache is ready to use.
type NormCache struct {
	snap atomic.Pointer[codebookSnapshot]
}

// Sync returns the codebook of flat's dim-wide rows, rebuilding it when
// version, dim, or the row count differs from the cached snapshot. The
// returned codebook is immutable once published: callers may share it
// read-only across goroutines and it stays valid — and consistent — even
// if another goroutine invalidates the cache, which installs a fresh
// codebook rather than rewriting this one.
func (c *NormCache) Sync(flat []float64, dim int, version uint64) *Codebook {
	units := 0
	if dim > 0 {
		units = len(flat) / dim
	}
	if s := c.snap.Load(); s != nil && s.version == version && s.cb.dim == dim && s.cb.units == units {
		return s.cb
	}
	s := &codebookSnapshot{version: version, cb: NewCodebook(flat, dim)}
	c.snap.Store(s)
	return s.cb
}

// BMUScratch is the per-engine-instance working state of the BMU search:
// the expanded-distance row of the record being settled, the nonzero
// lists of a tile of dense-only records, a codebook for callers that
// pass none, and the resolved TileConfig. A scratch is NOT safe for
// concurrent use; parallel callers give each worker its own (the
// per-worker arenas of som's bmuView), which keeps the steady-state hot
// path free of pool and lock traffic. The zero value is ready to use
// with the default tile.
type BMUScratch struct {
	// Tile is the resolved block shape; the zero value selects
	// DefaultTileRows.
	Tile   TileConfig
	scores []float64
	nz     Sparse
	cb     Codebook
}

// ArgMinDistanceBatch computes, for every row of x, the index of the
// nearest dim-wide row of the packed row-major matrix flat and the squared
// distance to it — the batched form of calling ArgMinDistance per row,
// with bit-for-bit identical results (same indices, same distance bits,
// ties to the lowest index, (-1, +Inf) for degenerate queries). out
// receives the indices and outDist the squared distances; either may be
// nil to skip that output, and both must otherwise have length at least
// x.Rows(). One scratch per worker is the contention-free steady state of
// the parallel dataplanes. Steady-state heap allocation is zero.
//
// nz carries the nonzero entries of x's rows (a TrainSet's CSR form);
// the zero Sparse has the scratch build them tile by tile from the dense
// rows. The dense rows are read by the exact settle either way.
//
// cb is the codebook of flat (e.g. from NormCache.Sync); pass nil to have
// it derived internally. Supplying a cached codebook amortizes the norm
// pass and the transpose across calls — the point of the cache on
// training loops that search between incremental weight updates.
//
// Passing outDist == nil does more than skip a store: when the settle
// margin leaves a single candidate — virtually every record outside
// near-ties — that candidate is provably the scalar argmin and the
// canonical distance scan is skipped entirely, removing the serial
// add-latency chain from the per-record critical path. The training BMU
// pass (which only needs classes) runs in this mode.
//
// The call runs serially; callers parallelize by splitting the view
// (View.Slice), the nonzeros (Sparse.Slice) and the output slices across
// workers, each with its own scratch, so no pool or lock is touched per
// tile.
//
// xNorms optionally carries SumSquares of every row of x (length at
// least x.Rows()); nil computes them per row. Callers that search the
// same records many times — a training set across epochs — compute the
// table once and skip the per-row record-norm pass on every later call.
func (s *BMUScratch) ArgMinDistanceBatch(x View, nz Sparse, xNorms []float64, flat []float64, cb *Codebook, out []int, outDist []float64) {
	n := x.Rows()
	if n == 0 {
		return
	}
	dim := x.Dim()
	units := 0
	if dim > 0 {
		units = len(flat) / dim
	}
	if units == 0 || units*dim < gemmMinBlock {
		// No complete weight row (the scalar contract yields (-1, +Inf)),
		// or a codebook too small to amortize the norm pass, transpose
		// and settle scans: the scalar scan is faster and trivially
		// identical.
		for i := 0; i < n; i++ {
			b, d := ArgMinDistance(x.Row(i), flat)
			if out != nil {
				out[i] = b
			}
			if outDist != nil {
				outDist[i] = d
			}
		}
		return
	}
	if cb == nil {
		s.cb.Build(flat, dim)
		cb = &s.cb
	}
	s.scores = grow(s.scores, cb.ld)
	d := s.scores[:units]
	res := batchResult{x: x, flat: flat, out: out, outDist: outDist}
	tile := s.Tile.Rows()
	for lo := 0; lo < n; lo += tile {
		hi := min(lo+tile, n)
		var tnz Sparse
		if nz.Rows() > 0 {
			tnz = nz.Slice(lo, hi)
		} else {
			s.nz.reset()
			for i := lo; i < hi; i++ {
				s.nz.appendRow(x.Row(i))
			}
			tnz = s.nz
		}
		for i := lo; i < hi; i++ {
			var xn float64
			if xNorms != nil {
				xn = xNorms[i]
			} else {
				xn = sumSquares(x.Row(i))
			}
			if !(xn+cb.maxN < overflowGuard) {
				b, e := ArgMinDistance(x.Row(i), flat)
				res.set(i, b, e)
				continue
			}
			cols, vals := tnz.Row(i - lo)
			minD, next, arg := scoreSparse(cb, cols, vals, xn, s.scores)
			thr := minD + ExpandSettleRel*(xn+cb.maxN)
			if minD < math.Inf(1) && !(next <= thr) {
				// The scalar argmin is always inside the margin, so a
				// unique candidate — the lowest lane at the minimum — is
				// the winner: no canonical judging, and no canonical
				// distance unless the caller asked for it.
				res.unique(i, arg)
				continue
			}
			b, e := settle(x.Row(i), flat, d, thr)
			res.set(i, b, e)
		}
	}
	res.flush()
}

// batchResult writes one ArgMinDistanceBatch call's results. Rows with a
// unique candidate whose distance is wanted queue up and have their
// canonical distances computed four at a time (squaredDistances4), so
// the serial add chains of four rows overlap.
type batchResult struct {
	x       View
	flat    []float64
	out     []int
	outDist []float64
	pending [4]struct{ row, unit int }
	npend   int
}

// set stores row i's result.
func (r *batchResult) set(i, best int, dist float64) {
	if r.out != nil {
		r.out[i] = best
	}
	if r.outDist != nil {
		r.outDist[i] = dist
	}
}

// unique records that unit is row i's only candidate.
func (r *batchResult) unique(i, unit int) {
	if r.outDist == nil {
		r.set(i, unit, 0)
		return
	}
	r.pending[r.npend] = struct{ row, unit int }{i, unit}
	if r.npend++; r.npend == len(r.pending) {
		r.flush()
	}
}

// flush computes the queued canonical distances and stores the results.
// A distance that is not below +Inf (an overflowing or NaN sum) sends
// its row to the scalar scan, as a lone candidate's would.
func (r *batchResult) flush() {
	var e [4]float64
	p := r.pending[:r.npend]
	r.npend = 0
	if len(p) == 0 {
		return
	}
	if len(p) == 4 {
		dim := r.x.Dim()
		e[0], e[1], e[2], e[3] = squaredDistances4(
			r.x.Row(p[0].row), r.x.Row(p[1].row), r.x.Row(p[2].row), r.x.Row(p[3].row),
			r.flat[p[0].unit*dim:], r.flat[p[1].unit*dim:], r.flat[p[2].unit*dim:], r.flat[p[3].unit*dim:])
	} else {
		for k, q := range p {
			e[k] = SquaredDistanceFlat(r.x.Row(q.row), r.flat, q.unit*r.x.Dim())
		}
	}
	for k, q := range p {
		b := q.unit
		if !(e[k] < math.Inf(1)) {
			b, e[k] = ArgMinDistance(r.x.Row(q.row), r.flat)
		}
		r.set(q.row, b, e[k])
	}
}

// squaredDistances4 returns SquaredDistance(x_k, w_k[:len(x_k)]) for four
// pairs of equal-length rows. Each pair has its own accumulator, summed
// in the canonical element order, so every result has the bits of the
// one-pair kernel; the four chains are independent, so they overlap
// instead of each waiting out its serial add latency.
func squaredDistances4(x0, x1, x2, x3, w0, w1, w2, w3 []float64) (s0, s1, s2, s3 float64) {
	n := len(x0)
	x1, x2, x3 = x1[:n], x2[:n], x3[:n]
	w0, w1, w2, w3 = w0[:n], w1[:n], w2[:n], w3[:n]
	for j := 0; j < n; j++ {
		d0 := x0[j] - w0[j]
		d1 := x1[j] - w1[j]
		d2 := x2[j] - w2[j]
		d3 := x3[j] - w3[j]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}

// scoreSparseGeneric is the portable twin of the sparse scoring kernel:
// it writes the expanded distance d_u = (xn + ‖w_u‖²) − 2·dot_u of every
// lane into d (length cb.ld; +Inf in padding lanes) and returns the
// smallest and second-smallest of them, with NaN distances never
// comparing, and — when the smallest is below +Inf — the lowest lane
// holding it. Ties count twice: two lanes at the minimum make the
// runner-up equal to it.
func scoreSparseGeneric(cb *Codebook, cols []int32, vals []float64, xn float64, d []float64) (float64, float64, int) {
	ld := cb.ld
	d = d[:ld]
	for u := range d {
		d[u] = 0
	}
	for k, j := range cols {
		v := vals[k]
		row := cb.wt[int(j)*ld : int(j)*ld+ld]
		for u := range d {
			d[u] += v * row[u]
		}
	}
	min1, min2, arg := math.Inf(1), math.Inf(1), -1
	for u, dot := range d {
		e := xn + cb.bias[u] - 2*dot
		d[u] = e
		if e < min2 {
			if e < min1 {
				min1, min2, arg = e, min1, u
			} else {
				min2 = e
			}
		}
	}
	return min1, min2, arg
}

// settle judges the candidates of a record whose expanded distances d
// (one per unit) leave more than one unit within thr of the minimum:
// the canonical kernel decides among every unit with d_u ≤ thr (NaN
// never qualifies), and an empty or all-NaN candidate set falls back to
// the scalar scan.
func settle(xi, flat, d []float64, thr float64) (int, float64) {
	dim := len(xi)
	best, bestVal := -1, math.Inf(1)
	for u, e := range d {
		if e <= thr {
			if c := SquaredDistanceFlat(xi, flat, u*dim); c < bestVal {
				best, bestVal = u, c
			}
		}
	}
	if best < 0 {
		// All candidates (or all expanded distances) were NaN — exactly the
		// inputs whose scalar behavior is subtle; let the reference kernel
		// decide.
		return ArgMinDistance(xi, flat)
	}
	return best, bestVal
}
