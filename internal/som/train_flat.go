package som

import (
	"fmt"
	"math"
	"sync"

	"ghsom/internal/parallel"
	"ghsom/internal/vecmath"
)

// This file holds the flat training dataplane: batch and online training
// kernels over a vecmath.View (a row-major matrix plus an optional row
// subset), mirroring the inference dataplane in batch.go, and the
// quantization-error measures over a view. A slice-of-rows data set
// reaches them through vecmath.MatrixFromRows.
//
// Both kernels hoist the neighborhood kernel out of the per-record loop:
// the training parameters are per-epoch constants (see scheduleFrac), so
// the full coefficient table H[bmu][unit] — units² entries, tiny for
// GHSOM child maps — is computed once per epoch and the inner loops
// reduce to table lookups. Batch training additionally replaces the
// per-(record, unit) weighted accumulation with BMU-class accumulation:
// per-class sums and counts in one pass over the rows' nonzero entries,
// then one rank-1 update per (class, unit) pair — O(nnz + units²·dim)
// per epoch instead of O(N·units·dim).
//
// Determinism: the per-record BMU searches write only their own output
// slots and every floating-point reduction (class sums, MQE) runs on the
// chunked scheduler (parallel.MapReduceChunk), whose chunk layout is a
// function of the row count only and whose per-chunk partials fold in
// ascending chunk order — so training results are bit-for-bit identical
// at every Parallelism setting, including serial execution.

// scheduleFrac returns the training fraction of an epoch for parameter
// decay: epochs interpolate over Epochs-1 so the final epoch trains
// exactly at the schedule's end values (AlphaEnd, RadiusEnd). Before this
// fix the fraction was epoch/Epochs, which never reached the endpoints. A
// single-epoch run has no schedule to traverse and trains at the start
// values.
func (c *TrainConfig) scheduleFrac(epoch int) float64 {
	if c.Epochs <= 1 {
		return 0
	}
	return float64(epoch) / float64(c.Epochs-1)
}

// checkView validates a data view against the map dimension.
func (m *Map) checkView(v vecmath.View) error {
	if v.Rows() == 0 {
		return ErrNoData
	}
	if v.Dim() != m.dim {
		return fmt.Errorf("data view of dim %d, map dim %d: %w", v.Dim(), m.dim, ErrDimMismatch)
	}
	return nil
}

// neighborhoodTable fills dst (length units*units) with the neighborhood
// coefficient of every (bmu, unit) pair at the given radius, scaled by
// scale: dst[bmu*units+u] = scale * kernel(gridDist²(bmu, u), radius).
// When cutoff is set, coefficients outside the kernel's reach (3σ for
// gaussian and mexican-hat, σ for bubble) are zeroed except at the BMU
// itself — the online rule's update window; the batch rule keeps every
// coefficient, matching its historical all-units accumulation. Grid
// coordinates are enumerated directly, so building the table performs no
// division and exactly units² kernel evaluations.
func (m *Map) neighborhoodTable(dst []float64, radius, scale float64, kernel Kernel, cutoff bool) {
	units := m.Units()
	cut2 := math.Inf(1)
	if cutoff {
		cut := radius * 3
		if kernel == KernelBubble {
			cut = radius
		}
		cut2 = cut * cut
	}
	b := 0
	for br := 0; br < m.rows; br++ {
		for bc := 0; bc < m.cols; bc++ {
			row := dst[b*units : (b+1)*units]
			u := 0
			for ur := 0; ur < m.rows; ur++ {
				dr := float64(br - ur)
				for uc := 0; uc < m.cols; uc++ {
					dc := float64(bc - uc)
					d2 := dr*dr + dc*dc
					if d2 > cut2 && u != b {
						row[u] = 0
					} else {
						row[u] = scale * kernel.Value(d2, radius)
					}
					u++
				}
			}
			b++
		}
	}
}

// bmuScratchPool recycles per-worker BMU engine scratches across bmuView
// calls. Scratches are claimed once per worker per call — never on the
// per-chunk path — so the steady state has no pool traffic and no
// cross-worker contention inside the BMU search.
var bmuScratchPool = sync.Pool{New: func() any { return new(vecmath.BMUScratch) }}

// bmuView computes the BMU index and squared distance of every view row
// into bmus and d2s (either may be nil), through the BMU engine against
// cb, the codebook of the map's current weights (m.codebook(), or the
// one a training loop rebuilds each epoch): work-stealing workers
// (parallel.ForEachChunk) take tile-sized row chunks and run the sparse
// expanded-distance kernel (vecmath.BMUScratch.ArgMinDistanceBatch)
// over them, which is
// bit-for-bit identical to the per-row ArgMinDistance scan. nz, when it
// has rows, holds the view rows' nonzero entries and xNorms, when
// non-nil, each row's vecmath.SumSquares (a TrainSet's forms), so the
// engine builds no nonzero lists and skips its per-row record-norm pass.
// The tile shape is resolved per call from the codebook and worker count
// (vecmath.ResolveTile); the worker count is clamped so no worker gets
// less than one tile (parallel.WorkersGrain); each worker owns a pooled
// scratch for the whole call, and the codebook is read-only — no mutex
// or pool sits on the per-chunk path. When
// d2s is nil — the training BMU pass under SkipEpochMQE — the engine
// skips the canonical distance settle for every unambiguous record.
// Each chunk writes only its own slots, so results are identical at
// every worker count.
func (m *Map) bmuView(v vecmath.View, nz vecmath.Sparse, xNorms []float64, cb *vecmath.Codebook, bmus []int, d2s []float64, p int) {
	n := v.Rows()
	if n == 0 || (bmus == nil && d2s == nil) {
		return
	}
	tile := vecmath.ResolveTile(m.dim, m.Units(), parallel.Workers(p, n))
	grain := tile.RecRows
	w := parallel.WorkersGrain(p, n, grain)
	scratches := make([]*vecmath.BMUScratch, w)
	for i := range scratches {
		sc := bmuScratchPool.Get().(*vecmath.BMUScratch)
		sc.Tile = tile
		scratches[i] = sc
	}
	parallel.ForEachChunk(nil, p, n, grain, func(wk, lo, hi int) error {
		var ob []int
		var od, xn []float64
		var cnz vecmath.Sparse
		if bmus != nil {
			ob = bmus[lo:hi]
		}
		if d2s != nil {
			od = d2s[lo:hi]
		}
		if xNorms != nil {
			xn = xNorms[lo:hi]
		}
		if nz.Rows() > 0 {
			cnz = nz.Slice(lo, hi)
		}
		scratches[wk].ArgMinDistanceBatch(v.Slice(lo, hi), cnz, xn, m.flat, cb, ob, od)
		for i := range ob {
			if ob[i] < 0 {
				ob[i] = 0 // degenerate query: keep the BMU contract of unit 0
			}
		}
		return nil
	})
	for _, sc := range scratches {
		bmuScratchPool.Put(sc)
	}
}

// classAccum is one chunk's BMU-class partial: per-unit data-row sums and
// counts. Partials live in cache-line-padded MapReduceChunk slots while
// workers fill them and are pooled across epochs, so the steady-state
// fold neither false-shares nor allocates.
type classAccum struct {
	sum []float64
	cnt []int
}

var classAccumPool = sync.Pool{New: func() any { return new(classAccum) }}

// reset shapes the accumulator for a units×dim map and zeroes it.
func (a *classAccum) reset(units, dim int) {
	if cap(a.sum) < units*dim {
		a.sum = make([]float64, units*dim)
	} else {
		a.sum = a.sum[:units*dim]
		for i := range a.sum {
			a.sum[i] = 0
		}
	}
	if cap(a.cnt) < units {
		a.cnt = make([]int, units)
	} else {
		a.cnt = a.cnt[:units]
		for i := range a.cnt {
			a.cnt[i] = 0
		}
	}
}

// classFoldGrain is the chunk grain of the BMU-class accumulation fold: a
// pure function of the row count (so the chunk layout never depends on
// the worker count), bounding live per-chunk class tables at ~64 while
// keeping batches of up to 2048 rows in one chunk — where the fold is
// exactly the retired serial row-order accumulation.
func classFoldGrain(n int) int {
	g := (n + 63) / 64
	if g < 2048 {
		g = 2048
	}
	return g
}

// mqeFoldGrain is the chunk grain of the scalar sqrt-sum folds (epoch
// MQE): constant, so the layout depends on the row count only.
const mqeFoldGrain = 8192

// TrainSet is a training data set prepared for the many BMU passes a
// growing map runs over it. It keeps its rows in two forms: gathered into
// one contiguous matrix, so every pass streams them in memory order (the
// exact canonical settle reads these), and as each row's nonzero entries
// in CSR form, which the BMU scores and the batch rule's class sums
// read. Beside them it keeps the squared norm of each row (the ‖x‖² term
// of the BMU engine), computed once instead of once per pass. A TrainSet
// is read-only and may be shared by concurrent passes.
type TrainSet struct {
	rows  vecmath.View
	nz    vecmath.Sparse
	norms []float64
}

// NewTrainSet gathers v's rows (no copy when v is a whole matrix) and
// their nonzero entries in one pass, and computes their squared norms.
func NewTrainSet(v vecmath.View) TrainSet {
	mat, nz := v.GatherSparse()
	return TrainSet{
		rows:  mat.View(),
		nz:    nz,
		norms: vecmath.SquaredNorms(mat.Data(), mat.Cols(), make([]float64, 0, mat.Rows())),
	}
}

// View returns the set's rows, in the order of the view it was built from.
func (s TrainSet) View() vecmath.View { return s.rows }

// ClassMeans returns, for every unit u with take[u] set, the element-wise
// mean of the set's rows whose entry in bmus (one per row) is u, and nil
// for the other units. The sums run in row order over each row's
// nonzeros from +0 (vecmath.Sparse.AddRow), so each mean has the bits of
// vecmath.View.Mean over the same rows; every taken unit must own at
// least one row.
func (s TrainSet) ClassMeans(bmus []int, take []bool) [][]float64 {
	dim := s.rows.Dim()
	means := make([][]float64, len(take))
	counts := make([]int, len(take))
	for u, t := range take {
		if t {
			means[u] = make([]float64, dim)
		}
	}
	for i, u := range bmus[:s.rows.Rows()] {
		sum := means[u]
		if sum == nil {
			continue
		}
		counts[u]++
		s.nz.AddRow(sum, i)
	}
	for u, sum := range means {
		if sum == nil {
			continue
		}
		inv := 1 / float64(counts[u])
		for j := range sum {
			sum[j] *= inv
		}
	}
	return means
}

// TrainBatchSet trains the map with the deterministic batch rule over a
// prepared training set. Each epoch runs one parallel BMU pass, accumulates
// per-BMU-class sums (over each row's nonzeros, vecmath.Sparse.AddRow)
// and counts with a chunked deterministic fold
// (parallel.MapReduceChunk: fixed row-count-only chunk layout, partials
// folded in ascending chunk order), and moves every unit to its
// neighborhood-weighted class mean via one rank-1 update per (class,
// unit) pair. The BMU-pass distances double as the previous epoch's MQE
// measurement, so no separate quality scan runs inside the epoch loop;
// unless cfg.SkipEpochMQE is set, one extra distance-only pass after the
// final epoch completes the stats. Batch training ignores Alpha and
// Shuffle. Results are bit-for-bit identical at every cfg.Parallelism
// setting.
func (m *Map) TrainBatchSet(s TrainSet, cfg TrainConfig) (TrainStats, error) {
	if err := cfg.validate(); err != nil {
		return TrainStats{}, err
	}
	v, nz := s.rows, s.nz
	if err := m.checkView(v); err != nil {
		return TrainStats{}, err
	}
	radius0 := cfg.effectiveRadius0(m)
	units, dim, n := m.Units(), m.dim, v.Rows()
	var (
		h     = make([]float64, units*units)
		numer = make([]float64, dim)
		bmus  = make([]int, n)
		d2s   []float64
		// cb is the codebook of this epoch's weights, rebuilt in place:
		// the call owns the map and rewrites every weight each epoch, so
		// a cached snapshot per epoch would only be garbage.
		cb vecmath.Codebook
	)
	foldGrain := classFoldGrain(n)
	stats := TrainStats{}
	if !cfg.SkipEpochMQE {
		stats.EpochMQE = make([]float64, 0, cfg.Epochs)
		d2s = make([]float64, n)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		radius := cfg.Decay.Interp(radius0, cfg.RadiusEnd, cfg.scheduleFrac(epoch))
		m.neighborhoodTable(h, radius, 1, cfg.Kernel, false)

		cb.Build(m.flat, dim)
		m.bmuView(v, nz, s.norms, &cb, bmus, d2s, cfg.Parallelism)
		acc := parallel.MapReduceChunk(cfg.Parallelism, n, foldGrain, (*classAccum)(nil),
			func(lo, hi int) *classAccum {
				a := classAccumPool.Get().(*classAccum)
				a.reset(units, dim)
				for i := lo; i < hi; i++ {
					c := bmus[i]
					a.cnt[c]++
					nz.AddRow(a.sum[c*dim:(c+1)*dim], i)
				}
				return a
			},
			func(acc, part *classAccum) *classAccum {
				if acc == nil {
					return part
				}
				vecmath.AddInPlace(acc.sum, part.sum)
				for i, c := range part.cnt {
					acc.cnt[i] += c
				}
				classAccumPool.Put(part)
				return acc
			})
		classSum, classCnt := acc.sum, acc.cnt
		if epoch > 0 && !cfg.SkipEpochMQE {
			// This epoch's BMU pass ran against the weights produced by the
			// previous epoch's update: its distances are exactly the
			// previous epoch's post-update MQE.
			qeSum := parallel.MapReduceChunk(cfg.Parallelism, n, mqeFoldGrain, 0.0,
				func(lo, hi int) float64 {
					var s float64
					for i := lo; i < hi; i++ {
						s += math.Sqrt(d2s[i])
					}
					return s
				},
				func(acc, part float64) float64 { return acc + part })
			stats.EpochMQE = append(stats.EpochMQE, qeSum/float64(n))
		}

		for u := 0; u < units; u++ {
			var denom float64
			for d := range numer {
				numer[d] = 0
			}
			for c := 0; c < units; c++ {
				if classCnt[c] == 0 {
					continue
				}
				hc := h[c*units+u]
				if hc <= 0 {
					continue
				}
				denom += hc * float64(classCnt[c])
				vecmath.AXPYInPlace(numer, hc, classSum[c*dim:(c+1)*dim])
			}
			if denom <= 0 {
				continue // keep previous weight for starved units
			}
			inv := 1 / denom
			w := m.Weight(u)
			for d := range w {
				w[d] = numer[d] * inv
			}
		}
		classAccumPool.Put(acc)
		// The rank-1 updates above rewrote the weight arena: bump the
		// version so the map's cached codebook is rebuilt before its next
		// use.
		m.touch()
	}
	if !cfg.SkipEpochMQE {
		stats.EpochMQE = append(stats.EpochMQE, m.mqeView(v, nz, s.norms, cfg.Parallelism, d2s))
	}
	return stats, nil
}

// TrainOnlineView trains the map with stochastic per-record updates over
// a flat data view. The learning rate and radius are per-epoch constants
// (see scheduleFrac), which lets each epoch precompute the α-scaled
// neighborhood table once; the per-record update is then a BMU search
// plus one table-gated MoveToward per in-cutoff unit, with no kernel or
// grid-distance evaluation in the loop. Presentation order is shuffled on
// a private index slice; the view is never modified.
func (m *Map) TrainOnlineView(v vecmath.View, cfg TrainConfig) (TrainStats, error) {
	if err := cfg.validate(); err != nil {
		return TrainStats{}, err
	}
	if err := m.checkView(v); err != nil {
		return TrainStats{}, err
	}
	radius0 := cfg.effectiveRadius0(m)
	units, n := m.Units(), v.Rows()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	ah := make([]float64, units*units)
	var d2scratch []float64
	stats := TrainStats{}
	if !cfg.SkipEpochMQE {
		stats.EpochMQE = make([]float64, 0, cfg.Epochs)
		d2scratch = make([]float64, n)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		frac := cfg.scheduleFrac(epoch)
		alpha := cfg.Decay.Interp(cfg.Alpha0, cfg.AlphaEnd, frac)
		radius := cfg.Decay.Interp(radius0, cfg.RadiusEnd, frac)
		m.neighborhoodTable(ah, radius, alpha, cfg.Kernel, true)
		if cfg.Shuffle {
			cfg.Rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, idx := range order {
			x := v.Row(idx)
			bmu, _ := m.BMU(x)
			row := ah[bmu*units : (bmu+1)*units]
			for u, coef := range row {
				if coef == 0 {
					continue
				}
				vecmath.MoveToward(m.Weight(u), coef, x)
			}
			m.touch() // MoveToward mutated the arena: invalidate norms
		}
		if !cfg.SkipEpochMQE {
			stats.EpochMQE = append(stats.EpochMQE, m.mqeView(v, vecmath.Sparse{}, nil, cfg.Parallelism, d2scratch))
		}
	}
	return stats, nil
}

// mqeView returns the mean quantization error of the view on p workers
// (nz and xNorms as in bmuView), reusing d2s (length >= v.Rows(), or nil to allocate) as distance
// scratch. The sum folds on the chunked deterministic scheduler: the
// result is bit-identical at every worker count.
func (m *Map) mqeView(v vecmath.View, nz vecmath.Sparse, xNorms []float64, p int, d2s []float64) float64 {
	n := v.Rows()
	if n == 0 {
		return math.NaN()
	}
	if len(d2s) < n {
		d2s = make([]float64, n)
	}
	m.bmuView(v, nz, xNorms, m.codebook(), nil, d2s, p)
	sum := parallel.MapReduceChunk(p, n, mqeFoldGrain, 0.0,
		func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += math.Sqrt(d2s[i])
			}
			return s
		},
		func(acc, part float64) float64 { return acc + part })
	return sum / float64(n)
}

// AssignView returns the BMU index of every view row, on the map's
// configured Parallelism.
func (m *Map) AssignView(v vecmath.View) []int {
	out := make([]int, v.Rows())
	m.bmuView(v, vecmath.Sparse{}, nil, m.codebook(), out, nil, m.parallelism)
	return out
}

// UnitErrorsSet returns, per unit, the summed quantization error of the
// set's rows mapped to it and the number of rows mapped, and it also
// writes every row's BMU into bmus (length at least the set's row count):
// one BMU pass yields the per-unit errors, the counts, and the assignment
// a caller splits the set by.
func (m *Map) UnitErrorsSet(s TrainSet, bmus []int) (sumQE []float64, counts []int) {
	return m.unitErrors(s, bmus[:s.rows.Rows()])
}

// unitErrors runs one BMU pass over the set at the map's Parallelism,
// writing the BMUs into bmus, and folds the per-unit error sums and
// counts in row order.
func (m *Map) unitErrors(s TrainSet, bmus []int) (sumQE []float64, counts []int) {
	sumQE = make([]float64, m.Units())
	counts = make([]int, m.Units())
	n := s.rows.Rows()
	d2s := make([]float64, n)
	m.bmuView(s.rows, s.nz, s.norms, m.codebook(), bmus, d2s, m.parallelism)
	for i := 0; i < n; i++ {
		sumQE[bmus[i]] += math.Sqrt(d2s[i])
		counts[bmus[i]]++
	}
	return sumQE, counts
}

// MeanErrors returns the per-unit mean quantization error (zero for
// units that won nothing) from the per-unit error sums and counts of
// UnitErrorsSet.
func MeanErrors(sumQE []float64, counts []int) []float64 {
	out := make([]float64, len(sumQE))
	for i, c := range counts {
		if c > 0 {
			out[i] = sumQE[i] / float64(c)
		}
	}
	return out
}
