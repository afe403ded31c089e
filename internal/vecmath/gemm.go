package vecmath

import (
	"math"
	"sync/atomic"
)

// This file is the blocked BMU search engine: batched best-matching-unit
// search on the expanded-form identity
//
//	‖x−w‖² = ‖x‖² + ‖w‖² − 2·x·w
//
// The records×units dot-product block x·w is computed by MulBatchT — a
// cache-tiled, register-blocked matrix product over the flat record matrix
// and the flat weight arena — and the per-unit squared norms ‖w‖² come
// from a cache (NormCache) maintained by the weight owner. This turns BMU
// search from a memory-latency-bound per-record scan (one serially
// dependent accumulator walking every weight row per record) into a
// compute-dense kernel that reuses every loaded record and weight value
// across multiple accumulator chains.
//
// Exactness: the expanded form reassociates the arithmetic, so its values
// carry different rounding than the canonical scalar kernel
// (SquaredDistanceFlat). It is therefore used only as a CANDIDATE
// GENERATOR — every unit whose expanded distance lies within a small
// safety margin of the blocked minimum is settled with the exact canonical
// kernel, and the settled winner (lowest index on exact ties) is returned.
// Records whose magnitudes could overflow or cancel beyond the margin's
// error model fall back to the scalar scan wholesale. The result — index
// and squared distance — is bit-for-bit identical to ArgMinDistance on
// every input; see TestArgMinDistanceBatchMatchesScalar and
// FuzzArgMinDistanceBatch.

// Block shape of the engine: the number of record rows scored per tile
// is no longer a constant — it is a TileConfig resolved at engine init
// from the codebook shape and the worker count sharing the cache (see
// ResolveTile in tile.go). The scores scratch is RecRows×units floats,
// sized to stay cache-resident. The micro-kernel inside MulBatchT
// processes 4 record rows × 2 weight rows per accumulator group (8
// independent accumulator chains: enough to saturate two FMA ports at
// 4-cycle add latency, while the 14 live values still fit the register
// file); each loaded record value is reused across 2 weight rows and
// each weight value across 4 records.

// gemmMinBlock is the smallest units×dim codebook the blocked engine
// engages for; below it (a handful of very short rows) the per-record
// scalar scan wins and ArgMinDistanceBatch simply runs it.
const gemmMinBlock = 128

// ExpandSettleRel is the relative settle margin of the blocked BMU search:
// every unit whose expanded-form distance is within
// ExpandSettleRel·(‖x‖²+max‖w‖²) of the blocked minimum is re-judged with
// the exact canonical kernel. The true floating-point discrepancy between
// the expanded and canonical forms is bounded by ~(dim+3)·ε·(‖x‖²+‖w‖²)
// with ε = 2⁻⁵³ — below 1e-10 relative for any dim under ~10⁵ — so the
// 1e-9 margin only ever admits extra candidates (which the exact settle
// then judges); it can never exclude the true winner.
const ExpandSettleRel = 1e-9

// overflowGuard is the magnitude ceiling of the expanded-form fast path:
// when ‖x‖²+max‖w‖² is not comfortably below MaxFloat64, intermediate
// products could overflow to ±Inf (and their difference to NaN), breaking
// the candidate generator's error model. Such records take the scalar
// scan instead.
const overflowGuard = math.MaxFloat64 / 4

// ExpandGuardOK reports whether a record with squared norm xn searched
// against weights whose squared norms top out at maxNorm2 fits the
// expanded-form error model: magnitudes small enough that no
// intermediate term can overflow and the settle margin covers the
// floating-point discrepancy. Callers embedding the expanded form
// directly (the compiled routing descent) must fall back to their scalar
// kernel when this is false — the comparison is written so NaN fails it.
func ExpandGuardOK(xn, maxNorm2 float64) bool { return xn+maxNorm2 < overflowGuard }

// SumSquares returns ‖v‖² with unspecified accumulation order (SIMD when
// the platform kernel is active) — the record-norm reduction of the
// blocked engine. Candidate-generation use only; canonical rounding
// comes from Dot/SquaredDistanceFlat.
func SumSquares(v []float64) float64 { return sumSquares(v) }

// MulBatchT computes the records×units dot-product block of the batched
// BMU search: out[r*units+u] = x.Row(r) · flat[u*dim : (u+1)*dim], for all
// rows of x against all complete dim-wide rows of flat (a trailing partial
// row is ignored, matching ArgMinDistance). out must have length at least
// x.Rows()*units. The accumulation order is unspecified — the kernel
// reassociates sums for instruction-level parallelism, and uses AVX2+FMA
// assembly where the CPU supports it — so callers needing canonical
// rounding must re-derive it with Dot/SquaredDistanceFlat.
func MulBatchT(x View, flat []float64, out []float64) {
	dim := x.Dim()
	if dim == 0 {
		return
	}
	units := len(flat) / dim
	if units == 0 {
		return
	}
	mulBatchT(x, flat, out, x.Rows(), units, dim)
}

// mulBatchGeneric is the portable records×units dot-block kernel: 4
// record rows × 2 weight rows per accumulator group (8 independent
// chains), every loaded record value reused across 2 weight rows and
// every weight value across 4 records.
func mulBatchGeneric(x View, flat []float64, out []float64, n, units, dim int) {
	r := 0
	for ; r+4 <= n; r += 4 {
		x0 := x.Row(r)[:dim]
		x1 := x.Row(r + 1)[:dim]
		x2 := x.Row(r + 2)[:dim]
		x3 := x.Row(r + 3)[:dim]
		o0 := out[(r+0)*units : (r+1)*units]
		o1 := out[(r+1)*units : (r+2)*units]
		o2 := out[(r+2)*units : (r+3)*units]
		o3 := out[(r+3)*units : (r+4)*units]
		u := 0
		for ; u+2 <= units; u += 2 {
			w0 := flat[(u+0)*dim : (u+1)*dim]
			w1 := flat[(u+1)*dim : (u+2)*dim]
			var a00, a01, a10, a11, a20, a21, a30, a31 float64
			for j := 0; j < dim; j++ {
				wv0, wv1 := w0[j], w1[j]
				v0 := x0[j]
				a00 += v0 * wv0
				a01 += v0 * wv1
				v1 := x1[j]
				a10 += v1 * wv0
				a11 += v1 * wv1
				v2 := x2[j]
				a20 += v2 * wv0
				a21 += v2 * wv1
				v3 := x3[j]
				a30 += v3 * wv0
				a31 += v3 * wv1
			}
			o0[u], o0[u+1] = a00, a01
			o1[u], o1[u+1] = a10, a11
			o2[u], o2[u+1] = a20, a21
			o3[u], o3[u+1] = a30, a31
		}
		if u < units {
			w0 := flat[u*dim : (u+1)*dim]
			var a0, a1, a2, a3 float64
			for j := 0; j < dim; j++ {
				wv := w0[j]
				a0 += x0[j] * wv
				a1 += x1[j] * wv
				a2 += x2[j] * wv
				a3 += x3[j] * wv
			}
			o0[u], o1[u], o2[u], o3[u] = a0, a1, a2, a3
		}
	}
	// Record tail: one row against unit pairs, two accumulator chains.
	for ; r < n; r++ {
		xr := x.Row(r)[:dim]
		or := out[r*units : (r+1)*units]
		u := 0
		for ; u+2 <= units; u += 2 {
			w0 := flat[(u+0)*dim : (u+1)*dim]
			w1 := flat[(u+1)*dim : (u+2)*dim]
			var a0, a1 float64
			for j := 0; j < dim; j++ {
				v := xr[j]
				a0 += v * w0[j]
				a1 += v * w1[j]
			}
			or[u], or[u+1] = a0, a1
		}
		if u < units {
			w0 := flat[u*dim : (u+1)*dim]
			var a0 float64
			for j := 0; j < dim; j++ {
				a0 += xr[j] * w0[j]
			}
			or[u] = a0
		}
	}
}

// SquaredNorms writes the squared Euclidean norm of every complete
// dim-wide row of flat into dst (appended, so pass dst[:0] to reuse
// storage) and returns it.
func SquaredNorms(flat []float64, dim int, dst []float64) []float64 {
	if dim <= 0 {
		return dst
	}
	for off := 0; off+dim <= len(flat); off += dim {
		dst = append(dst, sumSquares(flat[off:off+dim]))
	}
	return dst
}

// sumSquaresGeneric is the portable squared-norm reduction: four
// independent accumulator chains so the sum is not bound by the serial
// add latency of the canonical kernels. Candidate-generation use only.
func sumSquaresGeneric(v []float64) float64 {
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(v); j += 4 {
		s0 += v[j] * v[j]
		s1 += v[j+1] * v[j+1]
		s2 += v[j+2] * v[j+2]
		s3 += v[j+3] * v[j+3]
	}
	for ; j < len(v); j++ {
		s0 += v[j] * v[j]
	}
	return s0 + s1 + s2 + s3
}

// MaxOrZero returns the largest element of v under plain > comparison
// (NaN entries are ignored), or 0 for an empty slice. It is the
// max-squared-norm reduction of the blocked engine's settle margin: a NaN
// norm means the unit's weights contain NaN, so its exact distance is NaN
// for every query and the unit can never win in the scalar kernel either —
// excluding it from the margin is safe.
func MaxOrZero(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// normSnapshot is one immutable generation of a NormCache: the norm
// table of a specific (version, dim, units) arena state. Snapshots are
// never mutated after publication — invalidation builds a fresh one —
// so readers holding a loaded snapshot are always consistent.
type normSnapshot struct {
	version uint64
	dim     int
	norms   []float64
}

// NormCache is a versioned, read-mostly cache of the per-row squared
// norms of a flat row-major weight arena — the ‖w‖² term of the
// expanded-form BMU search. The arena owner holds one counter that it
// bumps on every weight mutation (see som.Map.Version); Sync recomputes
// the table if and only if the presented version, dimension, or row
// count differs from the cached one, which makes a stale cache
// structurally impossible as long as every mutation bumps the counter —
// including reallocating growth, where the new arena arrives with a new
// version.
//
// The cache holds one atomic snapshot pointer and copies on invalidate:
// the steady-state read path (trained model, unchanged version) is one
// atomic load and three comparisons — no mutex, so any number of
// concurrent batch searches share the table without contending. On a
// version change each syncing goroutine builds a private replacement
// table and publishes it with an atomic store; concurrent syncs of the
// same state may race to publish, but every candidate snapshot is
// derived from identical inputs, so whichever lands is correct and the
// transient duplicate work is bounded by the worker count. Mutating the
// arena concurrently with Sync remains the caller's race, exactly as it
// is for the search itself. The zero NormCache is ready to use.
type NormCache struct {
	snap atomic.Pointer[normSnapshot]
}

// Sync returns the squared-norm table of flat's dim-wide rows,
// recomputing it when version, dim, or the row count differs from the
// cached snapshot. The returned slice is immutable once published:
// callers may share it read-only across goroutines and it stays valid —
// and consistent — even if another goroutine invalidates the cache,
// which installs a fresh table rather than rewriting this one.
func (c *NormCache) Sync(flat []float64, dim int, version uint64) []float64 {
	units := 0
	if dim > 0 {
		units = len(flat) / dim
	}
	if s := c.snap.Load(); s != nil && s.version == version && s.dim == dim && len(s.norms) == units {
		return s.norms
	}
	s := &normSnapshot{version: version, dim: dim, norms: SquaredNorms(flat, dim, nil)}
	c.snap.Store(s)
	return s.norms
}

// BMUScratch is the per-engine-instance working state of the blocked BMU
// search: the RecRows×units expanded-distance score tile, a norm table
// for callers that pass none, and the resolved TileConfig. A scratch is
// NOT safe for concurrent use; parallel callers give each worker its own
// (the per-worker arenas of som's bmuView and the routing descent), which
// keeps the steady-state hot path free of pool and lock traffic. The
// zero value is ready to use with the default tile.
type BMUScratch struct {
	// Tile is the resolved block shape; the zero value selects
	// DefaultTileRows.
	Tile   TileConfig
	scores []float64
	norms  []float64
}

// ArgMinDistanceBatch computes, for every row of x, the index of the
// nearest dim-wide row of the packed row-major matrix flat and the squared
// distance to it — the batched form of calling ArgMinDistance per row,
// with bit-for-bit identical results (same indices, same distance bits,
// ties to the lowest index, (-1, +Inf) for degenerate queries). out
// receives the indices and outDist the squared distances; either may be
// nil to skip that output, and both must otherwise have length at least
// x.Rows(). The score tile, fallback norm table, and tile shape are held
// by s. One scratch per worker is the contention-free steady state of the
// parallel dataplanes. Steady-state heap allocation is zero.
//
// norms carries the squared norm of every flat row (e.g. from
// NormCache.Sync); pass nil to have them computed internally. Supplying a
// cached table amortizes the ‖w‖² pass across calls — the point of the
// norm cache on training loops that search between incremental weight
// updates.
//
// Passing outDist == nil does more than skip a store: when the settle
// margin leaves a single candidate — virtually every record outside
// near-ties — that candidate is provably the scalar argmin and the
// canonical distance scan is skipped entirely, removing the serial
// add-latency chain from the per-record critical path. The training BMU
// pass (which only needs classes) and interior routing levels (which only
// need the descent edge) run in this mode.
//
// The call runs serially; callers parallelize by splitting the view
// (View.Slice) and the output slices across workers, each with its own
// scratch, so no pool or lock is touched per tile.
//
// xNorms optionally carries SumSquares of every row of x (length at
// least x.Rows()); nil computes them per row. Callers that search the
// same records many times — a training set across epochs — compute the
// table once and skip the per-row record-norm pass on every later call.
func (s *BMUScratch) ArgMinDistanceBatch(x View, xNorms []float64, flat []float64, norms []float64, out []int, outDist []float64) {
	n := x.Rows()
	if n == 0 {
		return
	}
	dim := x.Dim()
	units := 0
	if dim > 0 {
		units = len(flat) / dim
	}
	if units == 0 {
		// Matches the scalar contract: empty query or no complete weight
		// row yields (-1, +Inf).
		for i := 0; i < n; i++ {
			if out != nil {
				out[i] = -1
			}
			if outDist != nil {
				outDist[i] = math.Inf(1)
			}
		}
		return
	}
	if units*dim < gemmMinBlock {
		// Codebooks too small to amortize the blocked machinery (norm
		// pass, score tile, settle scans): the scalar scan is faster and
		// trivially identical.
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
	if norms == nil {
		s.norms = SquaredNorms(flat, dim, s.norms[:0])
		norms = s.norms
	}
	maxN := MaxOrZero(norms)
	tile := s.Tile.Rows()
	if n < tile {
		tile = n
	}
	if cap(s.scores) < tile*units {
		s.scores = make([]float64, tile*units)
	}
	for lo := 0; lo < n; lo += tile {
		hi := lo + tile
		if hi > n {
			hi = n
		}
		sub := x.Slice(lo, hi)
		scores := s.scores[:(hi-lo)*units]
		MulBatchT(sub, flat, scores)
		for i := 0; i < hi-lo; i++ {
			xi := sub.Row(i)
			var xn float64
			if xNorms != nil {
				xn = xNorms[lo+i]
			} else {
				xn = sumSquares(xi)
			}
			best, bestVal := settleRow(xi, xn, flat, norms, maxN, scores[i*units:(i+1)*units], dim, outDist != nil)
			if out != nil {
				out[lo+i] = best
			}
			if outDist != nil {
				outDist[lo+i] = bestVal
			}
		}
	}
}

// settleRow turns one record's dot-product row (xn is the record's
// SumSquares) into the exact argmin: expanded-form distances select
// candidates within the settle margin of the blocked minimum, the
// canonical kernel judges them, and degenerate magnitudes (overflow
// risk, non-finite norms, or an empty candidate set) fall back to the
// scalar scan. dots is overwritten with the expanded distances. The
// scalar argmin is always inside the margin, so when a single candidate
// survives it is the winner: the candidate scan is skipped, and so is
// the canonical distance when needDist is false.
func settleRow(xi []float64, xn float64, flat, norms []float64, maxN float64, dots []float64, dim int, needDist bool) (int, float64) {
	if !(xn+maxN < overflowGuard) {
		return ArgMinDistance(xi, flat)
	}
	// One scan finds the smallest expanded distance and the runner-up
	// (NaN distances never compare, so they are skipped as in the
	// candidate scan below).
	minD, next := math.Inf(1), math.Inf(1)
	arg := -1
	for u, nrm := range norms {
		d := xn + nrm - 2*dots[u]
		dots[u] = d
		if d < next {
			if d < minD {
				minD, next, arg = d, minD, u
			} else {
				next = d
			}
		}
	}
	thr := minD + ExpandSettleRel*(xn+maxN)
	if arg >= 0 && !(next <= thr) {
		// A unique candidate needs no canonical judging; with needDist
		// it is the only distance the candidate scan would compute.
		if !needDist {
			return arg, math.NaN()
		}
		if e := SquaredDistanceFlat(xi, flat, arg*dim); e < math.Inf(1) {
			return arg, e
		}
		return ArgMinDistance(xi, flat)
	}
	best, bestVal := -1, math.Inf(1)
	for u, d := range dots {
		if d <= thr {
			if e := SquaredDistanceFlat(xi, flat, u*dim); e < bestVal {
				best, bestVal = u, e
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
