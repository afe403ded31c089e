package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"unsafe"

	"ghsom/internal/parallel"
	"ghsom/internal/som"
	"ghsom/internal/vecmath"
)

// This file implements the compiled model representation: a trained GHSOM
// packed into one shared row-major weight arena plus flat routing tables,
// so the hierarchy descent — the per-record hot loop of serving — runs as
// a tight table-driven scan with zero pointer chasing, zero map lookups,
// and zero allocations. Placements are byte-identical to the pointer-tree
// walk (Route/RouteTrained): the distance kernels accumulate in the exact
// same term order, only abandoning a unit once its partial sum can no
// longer win, which never changes the winner or its error.

// compiledNode is one map of the hierarchy in the flat node table. All
// offsets index the Compiled arrays, never the heap.
type compiledNode struct {
	// weightOff is the node's first weight in the arena (float64 offset);
	// unit u of this node occupies arena[weightOff+u*dim : +dim].
	weightOff int
	// unitBase is the node's first entry in the per-unit tables
	// (childIndex, counts, unitQE): unit u is at index unitBase+u.
	unitBase int
	// units is rows*cols.
	units int
	// rows, cols is the grid shape.
	rows, cols int
	// depth is the node's layer (root = 1).
	depth int
	// parent is the parent node index (-1 for the root), parentUnit the
	// unit of the parent map this node expands.
	parent, parentUnit int
	// trainedBase/trainedLen delimit the node's slice of trainedIdx: the
	// ascending unit indices that won at least one training record (the
	// effective codebook of RouteTrained).
	trainedBase, trainedLen int
	// pairBase is the node's offset into pairDist (units*units entries),
	// or -1 when the node has no pairwise pruning table.
	pairBase int
}

// Compiled is a trained GHSOM compiled for serving: every map's weights
// from all levels live in one contiguous row-major arena, and the
// hierarchy is a flat node table plus a flat child index (one int32 per
// unit, -1 = leaf). Routing methods produce placements byte-identical to
// the equivalent *GHSOM tree walk at every Parallelism setting. The BMU
// search is f64 throughout: single records and small node groups take
// the screened scalar probes (bmuMasked, bmuFull), and larger groups of
// a batch take the blocked GEMM descent (RouteTrainedFlat). A Compiled
// is immutable after construction and safe for concurrent use.
type Compiled struct {
	cfg  Config
	dim  int
	mean []float64
	mqe0 float64

	nodes []compiledNode
	// childIndex[unitBase+u] is the node index of the child expanding
	// unit u, or -1 when the unit is a leaf.
	childIndex []int32
	// counts[unitBase+u] is the number of training records unit u won.
	counts []int64
	// unitQE[unitBase+u] is the unit's mean training quantization error.
	unitQE []float64
	// trainedIdx holds, per node, the ascending unit indices with
	// counts > 0 (see compiledNode.trainedBase/trainedLen).
	trainedIdx []int32
	// probeIdx is trainedIdx reordered for the masked BMU search: the
	// four highest-count units first (the opening group), the rest by
	// proximity to the top unit. Probing likely winners first makes the
	// pruning bounds tight from the start; explicit tie rules keep the
	// result identical to the ascending scan.
	probeIdx []int32
	// pairDist holds per-node units×units matrices of quarter-squared
	// distances between unit weights ((d/2)^2, see compiledNode.pairBase),
	// the triangle-inequality pruning tables of the masked BMU search.
	// Derived from the arena at compile/load time, never serialized.
	pairDist []float64
	// parentDist[unitBase+u] is the linear distance from unit u to the
	// weight of the parent unit this node expands — the parent-ball
	// screening row of the masked BMU search (zero for the root, which
	// has no parent). Derived, never serialized.
	parentDist []float64
	// norms[unitBase+u] is the squared Euclidean norm of unit u's arena
	// row — the ‖w‖² term of the blocked batch descent's expanded-form
	// BMU search. A Compiled is immutable, so unlike som.Map's versioned
	// NormCache these can never go stale. Derived, never serialized.
	norms []float64
	// nodeMaxNorm[i] is the largest squared unit norm of node i, the
	// magnitude term of the batch descent's settle margin and overflow
	// guard. Derived, never serialized.
	nodeMaxNorm []float64
	// tile is the GEMM block shape of the batch descent, resolved at
	// compile/load time from the model's widest codebook and the
	// machine's core count (vecmath.ResolveTile). Tile size never
	// affects placements — the expanded form only nominates candidates —
	// so the resolution is free to chase cache fit. Derived, never
	// serialized.
	tile vecmath.TileConfig
	// arena is the shared weight storage: totalUnits*dim float64s. For a
	// heap-loaded model it is owned storage; for a zero-copy load (see
	// ReadCompiledBinaryBytes) it is a read-only view over the caller's
	// mapping, as are counts and unitQE.
	arena []float64
	// viewBytes is how many bytes of the model alias the source buffer
	// of a zero-copy load (0 when fully heap-resident).
	viewBytes int
}

// Compile packs a trained hierarchy into its compiled representation.
// The model is copied; the Compiled shares no storage with g.
func Compile(g *GHSOM) *Compiled {
	c := &Compiled{
		cfg:  g.cfg,
		dim:  g.dim,
		mean: append([]float64(nil), g.mean...),
		mqe0: g.mqe0,
	}
	total := 0
	for _, n := range g.nodes {
		total += n.Map.Units()
	}
	c.nodes = make([]compiledNode, len(g.nodes))
	c.childIndex = make([]int32, total)
	c.counts = make([]int64, total)
	c.unitQE = make([]float64, total)
	c.arena = make([]float64, total*g.dim)
	base := 0
	for i, n := range g.nodes {
		units := n.Map.Units()
		cn := compiledNode{
			weightOff:  base * g.dim,
			unitBase:   base,
			units:      units,
			rows:       n.Map.Rows(),
			cols:       n.Map.Cols(),
			depth:      n.Depth,
			parent:     -1,
			parentUnit: n.ParentUnit,
		}
		copy(c.arena[cn.weightOff:cn.weightOff+units*g.dim], n.Map.Weights())
		for u := 0; u < units; u++ {
			c.childIndex[base+u] = -1
			if u < len(n.UnitCount) {
				c.counts[base+u] = int64(n.UnitCount[u])
			}
			if u < len(n.UnitQE) {
				c.unitQE[base+u] = n.UnitQE[u]
			}
		}
		c.nodes[i] = cn
		base += units
	}
	for i, n := range g.nodes {
		for u, ch := range n.Children {
			c.childIndex[c.nodes[i].unitBase+u] = int32(ch.ID)
			c.nodes[ch.ID].parent = i
			c.nodes[ch.ID].parentUnit = u
		}
	}
	c.buildTrainedIndex()
	return c
}

// buildTrainedIndex derives the per-node effective-codebook unit lists
// from the counts table, plus the count-ordered probe lists the masked
// BMU search scans.
func (c *Compiled) buildTrainedIndex() {
	if len(c.parentDist) != len(c.childIndex) {
		c.parentDist = make([]float64, len(c.childIndex))
	}
	c.trainedIdx = c.trainedIdx[:0]
	for i := range c.nodes {
		nd := &c.nodes[i]
		nd.trainedBase = len(c.trainedIdx)
		for u := 0; u < nd.units; u++ {
			if c.counts[nd.unitBase+u] > 0 {
				c.trainedIdx = append(c.trainedIdx, int32(u))
			}
		}
		nd.trainedLen = len(c.trainedIdx) - nd.trainedBase
	}
	c.probeIdx = append(c.probeIdx[:0], c.trainedIdx...)
	c.buildPairTables()
	c.buildNormTables()
	for i := range c.nodes {
		nd := &c.nodes[i]
		probe := c.probeIdx[nd.trainedBase : nd.trainedBase+nd.trainedLen]
		counts := c.counts[nd.unitBase : nd.unitBase+nd.units]
		sort.SliceStable(probe, func(a, b int) bool {
			ca, cb := counts[probe[a]], counts[probe[b]]
			if ca != cb {
				return ca > cb
			}
			return probe[a] < probe[b]
		})
		// Parent-ball row: the linear distance from every unit to the
		// parent unit's weight. The descent knows the exact distance
		// d(x, parent unit) when it enters this node, so the row turns
		// into a screening annulus at zero extra distance computations.
		if nd.parent >= 0 {
			pn := &c.nodes[nd.parent]
			pOff := pn.weightOff + nd.parentUnit*c.dim
			pw := c.arena[pOff : pOff+c.dim]
			pRow := c.parentDist[nd.unitBase : nd.unitBase+nd.units]
			for u := 0; u < nd.units; u++ {
				pRow[u] = math.Sqrt(vecmath.SquaredDistanceFlat(pw, c.arena, nd.weightOff+u*c.dim))
			}
		}
		// Probes beyond the opening group are reordered by proximity to
		// the top probe: when screening lets a near-tie through, meeting
		// it early tightens the best bound for everything after it. Scan
		// order never changes the result (the tie rules in bmuMasked are
		// order-independent), only the pruning rate.
		if len(probe) > 4 && nd.pairBase >= 0 {
			pd := c.pairDist[nd.pairBase+int(probe[0])*nd.units:][:nd.units]
			rest := probe[4:]
			sort.SliceStable(rest, func(a, b int) bool {
				da, db := pd[rest[a]], pd[rest[b]]
				if da != db {
					return da < db
				}
				return rest[a] < rest[b]
			})
		}
	}
}

// Pairwise-table build caps: a degenerate model with one huge map must
// not force a quadratic allocation, so oversized nodes simply run without
// a pruning table.
const (
	pairMaxUnits  = 2048    // per-node unit cap for a units×units table
	pairMaxFloats = 1 << 22 // total pairwise entries across the model
)

// buildPairTables precomputes, per node, the quarter-squared distances
// ((d/2)^2) between every pair of unit weights — the triangle-inequality
// pruning tables of bmuMasked, stored in squared space so the hot-path
// comparison needs no square roots. Derived deterministically from the
// arena.
func (c *Compiled) buildPairTables() {
	c.pairDist = c.pairDist[:0]
	for i := range c.nodes {
		nd := &c.nodes[i]
		nd.pairBase = -1
		units := nd.units
		if units > pairMaxUnits || len(c.pairDist)+units*units > pairMaxFloats {
			continue
		}
		base := len(c.pairDist)
		nd.pairBase = base
		c.pairDist = append(c.pairDist, make([]float64, units*units)...)
		pd := c.pairDist[base : base+units*units]
		for a := 0; a < units; a++ {
			rowA := c.arena[nd.weightOff+a*c.dim : nd.weightOff+(a+1)*c.dim]
			for b := a + 1; b < units; b++ {
				d := vecmath.SquaredDistanceFlat(rowA, c.arena, nd.weightOff+b*c.dim) * 0.25
				pd[a*units+b] = d
				pd[b*units+a] = d
			}
		}
	}
}

// buildNormTables precomputes the per-unit squared weight norms and the
// per-node maxima that feed the blocked batch descent's expanded-form
// candidate generator, and resolves the descent's GEMM tile shape for
// this model on this machine (every load path — Compile and both
// deserializers — funnels through here). Derived deterministically from
// the arena.
func (c *Compiled) buildNormTables() {
	c.norms = vecmath.SquaredNorms(c.arena, c.dim, c.norms[:0])
	if cap(c.nodeMaxNorm) < len(c.nodes) {
		c.nodeMaxNorm = make([]float64, len(c.nodes))
	}
	c.nodeMaxNorm = c.nodeMaxNorm[:len(c.nodes)]
	maxUnits := 0
	for i := range c.nodes {
		nd := &c.nodes[i]
		c.nodeMaxNorm[i] = vecmath.MaxOrZero(c.norms[nd.unitBase : nd.unitBase+nd.units])
		if nd.units > maxUnits {
			maxUnits = nd.units
		}
	}
	// Sized for the widest codebook of the hierarchy (the root dominates
	// the descent's GEMM work) under the machine's full worker budget —
	// the routing pool's steady-state concurrency.
	c.tile = vecmath.ResolveTile(c.dim, maxUnits, parallel.Resolve(0))
}

// Dim returns the input dimension.
func (c *Compiled) Dim() int { return c.dim }

// Config returns the configuration the model was trained with.
func (c *Compiled) Config() Config { return c.cfg }

// MQE0 returns the layer-0 quantization error.
func (c *Compiled) MQE0() float64 { return c.mqe0 }

// Mean returns a copy of the layer-0 mean vector.
func (c *Compiled) Mean() []float64 { return append([]float64(nil), c.mean...) }

// NumNodes returns the number of maps in the hierarchy.
func (c *Compiled) NumNodes() int { return len(c.nodes) }

// TotalUnits returns the number of units across all maps — the length of
// the per-unit tables and the arena row count.
func (c *Compiled) TotalUnits() int { return len(c.childIndex) }

// NodeUnits returns the unit count of node id, or 0 when out of range.
func (c *Compiled) NodeUnits(id int) int {
	if id < 0 || id >= len(c.nodes) {
		return 0
	}
	return c.nodes[id].units
}

// UnitWeight returns a copy of the weight vector of the given unit, or
// nil when the (node, unit) pair does not exist.
func (c *Compiled) UnitWeight(nodeID, unit int) []float64 {
	if nodeID < 0 || nodeID >= len(c.nodes) {
		return nil
	}
	nd := &c.nodes[nodeID]
	if unit < 0 || unit >= nd.units {
		return nil
	}
	off := nd.weightOff + unit*c.dim
	return append([]float64(nil), c.arena[off:off+c.dim]...)
}

// ArenaBytes returns the memory footprint of the shared weight arena.
func (c *Compiled) ArenaBytes() int { return len(c.arena) * 8 }

// TableBytes returns the memory footprint of the routing tables (node
// table, child index, counts, unit errors, trained/probe unit lists,
// pairwise pruning tables, and the norm caches of the batch descent).
func (c *Compiled) TableBytes() int {
	const nodeBytes = 11 * 8 // compiledNode fields
	return len(c.nodes)*nodeBytes +
		len(c.childIndex)*4 +
		len(c.counts)*8 +
		len(c.unitQE)*8 +
		len(c.trainedIdx)*4 +
		len(c.probeIdx)*4 +
		len(c.pairDist)*8 +
		len(c.parentDist)*8 +
		c.NormBytes()
}

// NormBytes returns the memory footprint of the norm caches the blocked
// batch descent tiles over: the per-unit squared-norm table plus the
// per-node maxima.
func (c *Compiled) NormBytes() int {
	return len(c.norms)*8 + len(c.nodeMaxNorm)*8
}

// QuantBytes returns 0: the BMU search keeps no reduced-precision copy
// of the arena.
//
// Deprecated: kept only so existing callers keep compiling.
func (c *Compiled) QuantBytes() int { return 0 }

// BlockShape describes the GEMM block of one hierarchy level as the
// blocked batch descent tiles it: at a level (depth), each record group
// routed into one of Nodes maps is scored against a units×dim weight
// block.
type BlockShape struct {
	// Depth is the level (root = 1).
	Depth int
	// Nodes is the number of maps at the level.
	Nodes int
	// MinUnits and MaxUnits bound the per-node unit counts (GEMM block
	// heights) at the level.
	MinUnits, MaxUnits int
	// Dim is the block width (the feature dimension).
	Dim int
	// WeightBytes is the total weight storage of the level's blocks.
	WeightBytes int
}

// BlockShapes reports, per level, the units×dim GEMM block shapes the
// batch descent will tile — the operator's view of what the engine
// multiplies at each step of the hierarchy.
func (c *Compiled) BlockShapes() []BlockShape {
	var out []BlockShape
	for i := range c.nodes {
		nd := &c.nodes[i]
		for len(out) < nd.depth {
			out = append(out, BlockShape{Depth: len(out) + 1, Dim: c.dim})
		}
		b := &out[nd.depth-1]
		b.Nodes++
		if b.MinUnits == 0 || nd.units < b.MinUnits {
			b.MinUnits = nd.units
		}
		if nd.units > b.MaxUnits {
			b.MaxUnits = nd.units
		}
		b.WeightBytes += nd.units * c.dim * 8
	}
	return out
}

// Stats computes the same structure statistics as GHSOM.Stats from the
// flat tables.
func (c *Compiled) Stats() Stats {
	var s Stats
	for i := range c.nodes {
		nd := &c.nodes[i]
		s.Maps++
		s.Units += nd.units
		if nd.depth > s.MaxDepth {
			s.MaxDepth = nd.depth
		}
		for len(s.MapsPerDepth) < nd.depth {
			s.MapsPerDepth = append(s.MapsPerDepth, 0)
			s.UnitsPerDepth = append(s.UnitsPerDepth, 0)
		}
		s.MapsPerDepth[nd.depth-1]++
		s.UnitsPerDepth[nd.depth-1] += nd.units
		if nd.units > s.LargestMapUnits {
			s.LargestMapUnits = nd.units
		}
		for u := 0; u < nd.units; u++ {
			if c.childIndex[nd.unitBase+u] < 0 {
				s.LeafUnits++
			}
		}
	}
	if s.Maps > 0 {
		s.MeanMapUnits = float64(s.Units) / float64(s.Maps)
	}
	return s
}

// The BMU kernels below accumulate each unit's squared Euclidean
// distance in the exact term order of vecmath.SquaredDistanceFlat,
// abandoning a unit once its partial sum reaches the current best: the
// remaining terms are non-negative, so the final sum could only be >= the
// partial and the unit can no longer win. A winning unit is never
// abandoned, so the chosen BMUs and their distances — and therefore every
// placement — are bit-identical to the unbounded tree-walk kernels. The
// distance loop is written inline (not as a helper) so the hot descent
// carries no per-unit call overhead.

// bmuFull is the full-map BMU search of one compiled node, mirroring
// som.Map.BMU on the dimension-matched path (including the degenerate
// all-NaN contract of reporting unit 0).
func (c *Compiled) bmuFull(x []float64, nd *compiledNode) (int, float64) {
	best, bestVal := -1, math.Inf(1)
	dim := len(x)
	off := nd.weightOff
	for u := 0; u < nd.units; u, off = u+1, off+dim {
		row := c.arena[off : off+dim]
		var sum float64
		j := 0
		for ; j+4 <= dim; j += 4 {
			d0 := x[j] - row[j]
			sum += d0 * d0
			d1 := x[j+1] - row[j+1]
			sum += d1 * d1
			d2 := x[j+2] - row[j+2]
			sum += d2 * d2
			d3 := x[j+3] - row[j+3]
			sum += d3 * d3
			if sum >= bestVal {
				break
			}
		}
		if j+4 <= dim {
			continue // abandoned: this unit cannot win
		}
		for ; j < dim; j++ {
			d := x[j] - row[j]
			sum += d * d
		}
		if sum < bestVal {
			best, bestVal = u, sum
		}
	}
	if best < 0 {
		return 0, bestVal
	}
	return best, bestVal
}

// pairSkipMargin is the relative safety factor of the pairwise-distance
// pruning rule, applied in squared space: a probe u is skipped only when
// (d(u,best)/2)^2 > d2(x,best) * pairSkipMargin. The triangle inequality
// d(x,u) >= d(u,best) - d(x,best) makes the unmargined rule exact in real
// arithmetic; the compiled tables and the running best are computed in
// floating point, whose accumulated relative error over a distance sum is
// ~1e-13 at most. Inflating the threshold by 1e-9 therefore only ever
// keeps extra candidates (which are then judged by their exact canonical
// distance) — it can never skip a unit that would have won or tied — so
// placements remain bit-identical.
const pairSkipMargin = 1 + 1e-9

// bmuMasked is the effective-codebook BMU search of one compiled node,
// mirroring som.Map.BMUMasked: only units that won training data compete,
// and ok is false when the node has none.
//
// The scan is organized for speed without changing the result:
//
//   - Units are probed in descending training-count order (probeIdx), so
//     the likeliest winner is met first and the pruning bound is tight
//     from the start.
//   - The first four probes are scanned together with four independent
//     accumulators, so their serial float-add chains overlap in the
//     pipeline. Each unit's sum is still accumulated in the exact term
//     order of vecmath.SquaredDistanceFlat, so every distance is
//     bit-identical to the tree walk's.
//   - Remaining units are screened by the compiled pairwise-distance
//     table: unit u cannot beat (or tie) the best b when
//     d(u, b) > 2*d(x, b), by the triangle inequality, so most units
//     cost one table load and one compare instead of a distance scan.
//   - Survivors run the canonical distance loop with partial-sum
//     abandonment (strictly above best only — an exact tie must finish
//     so the index rule below can judge it).
//   - Ties resolve to the lowest unit index — exactly the result of
//     BMUMasked's ascending scan.
func (c *Compiled) bmuMasked(x []float64, nd *compiledNode, parentDelta float64) (int, float64, bool) {
	dim := len(x)
	probe := c.probeIdx[nd.trainedBase : nd.trainedBase+nd.trainedLen]
	if len(probe) == 0 {
		return 0, 0, false
	}
	best, bestVal := -1, math.Inf(1)
	arena := c.arena
	// Opening group: up to four probes scanned with independent
	// accumulators so their serial float-add chains overlap in the
	// pipeline. NaN or +Inf sums never pass the comparisons below,
	// mirroring the reference kernel where such units are never selected.
	start := len(probe)
	if start > 4 {
		start = 4
	}
	switch start {
	case 4:
		u0, u1, u2, u3 := int(probe[0]), int(probe[1]), int(probe[2]), int(probe[3])
		r0 := arena[nd.weightOff+u0*dim:][:dim]
		r1 := arena[nd.weightOff+u1*dim:][:dim]
		r2 := arena[nd.weightOff+u2*dim:][:dim]
		r3 := arena[nd.weightOff+u3*dim:][:dim]
		var s0, s1, s2, s3 float64
		for j := 0; j < dim; j++ {
			xv := x[j]
			d0 := xv - r0[j]
			s0 += d0 * d0
			d1 := xv - r1[j]
			s1 += d1 * d1
			d2 := xv - r2[j]
			s2 += d2 * d2
			d3 := xv - r3[j]
			s3 += d3 * d3
		}
		if s0 < bestVal {
			best, bestVal = u0, s0
		}
		if s1 < bestVal || (s1 == bestVal && u1 < best) {
			best, bestVal = u1, s1
		}
		if s2 < bestVal || (s2 == bestVal && u2 < best) {
			best, bestVal = u2, s2
		}
		if s3 < bestVal || (s3 == bestVal && u3 < best) {
			best, bestVal = u3, s3
		}
	case 3:
		u0, u1, u2 := int(probe[0]), int(probe[1]), int(probe[2])
		r0 := arena[nd.weightOff+u0*dim:][:dim]
		r1 := arena[nd.weightOff+u1*dim:][:dim]
		r2 := arena[nd.weightOff+u2*dim:][:dim]
		var s0, s1, s2 float64
		for j := 0; j < dim; j++ {
			xv := x[j]
			d0 := xv - r0[j]
			s0 += d0 * d0
			d1 := xv - r1[j]
			s1 += d1 * d1
			d2 := xv - r2[j]
			s2 += d2 * d2
		}
		if s0 < bestVal {
			best, bestVal = u0, s0
		}
		if s1 < bestVal || (s1 == bestVal && u1 < best) {
			best, bestVal = u1, s1
		}
		if s2 < bestVal || (s2 == bestVal && u2 < best) {
			best, bestVal = u2, s2
		}
	case 2:
		u0, u1 := int(probe[0]), int(probe[1])
		r0 := arena[nd.weightOff+u0*dim:][:dim]
		r1 := arena[nd.weightOff+u1*dim:][:dim]
		var s0, s1 float64
		for j := 0; j < dim; j++ {
			xv := x[j]
			d0 := xv - r0[j]
			s0 += d0 * d0
			d1 := xv - r1[j]
			s1 += d1 * d1
		}
		if s0 < bestVal {
			best, bestVal = u0, s0
		}
		if s1 < bestVal || (s1 == bestVal && u1 < best) {
			best, bestVal = u1, s1
		}
	case 1:
		u0 := int(probe[0])
		r0 := arena[nd.weightOff+u0*dim:][:dim]
		var s0 float64
		for j := 0; j < dim; j++ {
			d0 := x[j] - r0[j]
			s0 += d0 * d0
		}
		if s0 < bestVal {
			best, bestVal = u0, s0
		}
	}
	// Screening rules — a probe u is skipped when either triangle-
	// inequality test excludes it:
	//
	//  1. Best ball: d(u,b) > 2*d(x,b) for the running best b. The
	//     pairwise table stores (d(u,b)/2)^2, so this is one load and one
	//     compare against the running best squared distance, square-root
	//     free.
	//  2. Parent annulus: |d(u,p) - d(x,p)| > d(x,b) for the parent unit
	//     p this node expands, whose exact distance parentDelta the
	//     descent computed one level up: then d(x,u) >= |d(u,p) - d(x,p)|
	//     > d(x,b), so u cannot win or tie. Units outside the annulus
	//     [parentDelta-delta, parentDelta+delta] are skipped with one
	//     table load and two compares.
	var pdRow, pRow []float64
	qbound := math.Inf(1)
	pHi, pLo := math.Inf(1), math.Inf(-1)
	if best >= 0 {
		qbound = bestVal * pairSkipMargin
		if nd.pairBase >= 0 {
			pdRow = c.pairDist[nd.pairBase+best*nd.units:][:nd.units]
		}
		if nd.parent >= 0 && parentDelta == parentDelta {
			pRow = c.parentDist[nd.unitBase : nd.unitBase+nd.units]
			delta := math.Sqrt(bestVal)
			pHi = (parentDelta + delta) * pairSkipMargin
			// The lower bound subtracts two near-equal magnitudes, so a
			// relative margin on the difference would not cover the
			// subtraction's own rounding error; the safety margin must be
			// absolute, scaled to the operands' magnitude.
			pLo = parentDelta - delta - parentDelta*(pairSkipMargin-1)
		}
	}
	// Scan the survivors four at a time with independent accumulators and
	// group abandonment (all four partial sums strictly above best —
	// strict, because an exact tie must finish so the index rule can judge
	// it). The bound only tightens as the scan advances, so screening a
	// later probe against an older, looser bound is always conservative.
	i := start
	for i < len(probe) {
		var pend [4]int
		np := 0
		for ; i < len(probe) && np < 4; i++ {
			u := int(probe[i])
			if pdRow != nil && pdRow[u] > qbound {
				continue // best ball: u cannot win or tie
			}
			if pRow != nil && (pRow[u] > pHi || pRow[u] < pLo) {
				continue // parent annulus: u cannot win or tie
			}
			pend[np] = u
			np++
		}
		prevBest := best
		if np == 4 {
			u0, u1, u2, u3 := pend[0], pend[1], pend[2], pend[3]
			r0 := arena[nd.weightOff+u0*dim:][:dim]
			r1 := arena[nd.weightOff+u1*dim:][:dim]
			r2 := arena[nd.weightOff+u2*dim:][:dim]
			r3 := arena[nd.weightOff+u3*dim:][:dim]
			var s0, s1, s2, s3 float64
			j := 0
			abandoned := false
			for j+8 <= dim {
				lim := j + 8
				for ; j < lim; j++ {
					xv := x[j]
					d0 := xv - r0[j]
					s0 += d0 * d0
					d1 := xv - r1[j]
					s1 += d1 * d1
					d2 := xv - r2[j]
					s2 += d2 * d2
					d3 := xv - r3[j]
					s3 += d3 * d3
				}
				if s0 > bestVal && s1 > bestVal && s2 > bestVal && s3 > bestVal {
					abandoned = true
					break
				}
			}
			if !abandoned {
				for ; j < dim; j++ {
					xv := x[j]
					d0 := xv - r0[j]
					s0 += d0 * d0
					d1 := xv - r1[j]
					s1 += d1 * d1
					d2 := xv - r2[j]
					s2 += d2 * d2
					d3 := xv - r3[j]
					s3 += d3 * d3
				}
				if s0 < bestVal || (s0 == bestVal && u0 < best) {
					best, bestVal = u0, s0
				}
				if s1 < bestVal || (s1 == bestVal && u1 < best) {
					best, bestVal = u1, s1
				}
				if s2 < bestVal || (s2 == bestVal && u2 < best) {
					best, bestVal = u2, s2
				}
				if s3 < bestVal || (s3 == bestVal && u3 < best) {
					best, bestVal = u3, s3
				}
			}
		} else {
			for k := 0; k < np; k++ {
				u := pend[k]
				row := arena[nd.weightOff+u*dim:][:dim]
				var sum float64
				j := 0
				abandoned := false
				for j+8 <= dim {
					lim := j + 8
					for ; j < lim; j++ {
						d := x[j] - row[j]
						sum += d * d
					}
					if sum > bestVal {
						abandoned = true
						break
					}
				}
				if abandoned {
					continue
				}
				for ; j < dim; j++ {
					d := x[j] - row[j]
					sum += d * d
				}
				if sum < bestVal || (sum == bestVal && u < best) {
					best, bestVal = u, sum
				}
			}
		}
		if best != prevBest {
			qbound = bestVal * pairSkipMargin
			if nd.pairBase >= 0 {
				pdRow = c.pairDist[nd.pairBase+best*nd.units:][:nd.units]
			}
			if pRow != nil {
				delta := math.Sqrt(bestVal)
				pHi = (parentDelta + delta) * pairSkipMargin
				pLo = parentDelta - delta - parentDelta*(pairSkipMargin-1)
			}
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestVal, true
}

// Route descends the compiled hierarchy by full-map best-matching units,
// exactly like GHSOM.Route: a dimension mismatch returns a Placement with
// QE = NaN, and placements are byte-identical to the tree walk.
func (c *Compiled) Route(x []float64) Placement {
	if len(x) != c.dim {
		return Placement{NodeID: -1, Unit: -1, QE: math.NaN()}
	}
	ni := 0
	for {
		nd := &c.nodes[ni]
		bmu, d2 := c.bmuFull(x, nd)
		child := c.childIndex[nd.unitBase+bmu]
		if child < 0 {
			return Placement{NodeID: ni, Unit: bmu, Depth: nd.depth, QE: math.Sqrt(d2)}
		}
		ni = int(child)
	}
}

// RouteTrained descends through the effective codebook (units that won
// training data, falling back to the full map when a node has none),
// exactly like GHSOM.RouteTrained, with byte-identical placements.
func (c *Compiled) RouteTrained(x []float64) Placement {
	if len(x) != c.dim {
		return Placement{NodeID: -1, Unit: -1, QE: math.NaN()}
	}
	return c.routeTrainedRow(x)
}

// routeTrainedRow is the table-driven descent kernel: one scan over the
// node's trained-unit list per level, one child-index load to descend.
func (c *Compiled) routeTrainedRow(x []float64) Placement {
	ni := 0
	parentDelta := math.NaN() // no parent ball at the root
	for {
		nd := &c.nodes[ni]
		bmu, d2, ok := c.bmuMasked(x, nd, parentDelta)
		if !ok {
			bmu, d2 = c.bmuFull(x, nd)
		}
		child := c.childIndex[nd.unitBase+bmu]
		if child < 0 {
			return Placement{NodeID: ni, Unit: bmu, Depth: nd.depth, QE: math.Sqrt(d2)}
		}
		parentDelta = math.Sqrt(d2)
		ni = int(child)
	}
}

// routeScratchPool recycles the per-worker state of the blocked batch
// descent: the duplicate-row index, the per-record descent state, and
// the GEMM score tiles. The maps are cleared before being pooled, so no
// caller memory is retained across calls.
var routeScratchPool = sync.Pool{
	New: func() any { return &routeScratch{seen: make(map[string]int, 512)} },
}

type routeScratch struct {
	seen   map[string]int
	ref    []int32   // per chunk row: chunk-relative representative (dedup)
	xn     []float64 // per unique row: squared record norm
	pd     []float64 // per unique row: exact distance at the parent level (NaN = unknown)
	cur    []int32   // per unique row: current node of the descent
	act    []int32   // active unique rows (not yet placed)
	nxt    []int32   // next level's active rows (double buffer)
	counts []int32   // per node: counting-sort state
	order  []int32   // active rows grouped by node
	gidx   []int     // absolute matrix rows of one GEMM tile
	allIdx []int32   // 0..units-1 candidate set for untrained nodes
	scores []float64 // GEMM tile: records×units dots, then expanded distances

}

// routeGemmMin is the smallest per-node group the descent scores through
// the blocked engine — smaller groups take the scalar screened probe
// path (bmuMasked), which wins when there is no batch to amortize the
// block over. The record rows per GEMM block are no longer a constant:
// they come from the per-model TileConfig resolved in buildNormTables.
const routeGemmMin = 8

// RouteTrainedFlat routes every row of the flat row-major batch through
// the effective codebook into out, with placements byte-identical to
// GHSOM.RouteTrained per row at every parallelism setting and zero
// per-row steady-state allocation.
//
// The descent is level-synchronous and blocked: within a worker chunk,
// records are deduplicated (byte-identical rows — common in real
// traffic, where a flood repeats one encoded vector — are routed once),
// then all records sitting at the same node of the hierarchy are scored
// against that node's units×dim weight block with one blocked
// expanded-form matrix product per group (vecmath.MulBatchT plus the
// compiled norm tables) instead of one scalar probe loop per record.
// Expanded distances only nominate candidates; winners are settled with
// the canonical kernel exactly as bmuMasked would, interior levels skip
// the canonical scan entirely when a single candidate survives the
// margin, and groups too small to fill a block — or records whose
// magnitudes fall outside the expanded form's error model — take the
// scalar screened path, so placements stay byte-identical to the
// per-record tree walk. The dedup index keys alias the caller's flat
// buffer only for the duration of the call (the caller must not mutate
// flat concurrently, which the batch contract already requires) and are
// dropped before the scratch returns to its pool.
func (c *Compiled) RouteTrainedFlat(flat []float64, n int, out []Placement, parallelism int) error {
	if len(flat) < n*c.dim {
		return fmt.Errorf("core: route flat batch of %d rows from %d values, want >= %d", n, len(flat), n*c.dim)
	}
	if len(out) < n {
		return fmt.Errorf("core: route flat batch of %d rows into %d placements", n, len(out))
	}
	if n == 0 {
		return nil
	}
	mat, err := vecmath.MatrixOver(flat, n, c.dim)
	if err != nil {
		return fmt.Errorf("core: route flat batch: %w", err)
	}
	// Chunk cap: keeps each worker's duplicate index small enough to stay
	// cache-resident (duplicate traffic clusters in time, so locality is
	// preserved), and spreads big batches across workers. Each worker
	// claims one pooled scratch for the whole call and chunks are handed
	// out by the work-stealing chunked scheduler, so the per-chunk path
	// touches no pool and no lock; placements are per-slot writes,
	// byte-identical at every worker count.
	const routeChunk = 2048
	w := parallel.Workers(parallelism, n)
	grain := (n + w - 1) / w
	if grain > routeChunk {
		grain = routeChunk
	}
	scratches := make([]*routeScratch, parallel.WorkersGrain(parallelism, n, grain))
	for i := range scratches {
		scratches[i] = routeScratchPool.Get().(*routeScratch)
	}
	parallel.ForEachChunk(nil, parallelism, n, grain, func(wk, lo, hi int) error {
		c.routeTrainedChunk(mat, lo, hi, out, scratches[wk])
		return nil
	})
	for _, sc := range scratches {
		routeScratchPool.Put(sc)
	}
	return nil
}

// grow32 resizes buf to n int32s, reallocating only on capacity growth.
func grow32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growF is grow32 for float64 scratch.
func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// routeTrainedChunk runs the deduplicated level-synchronous descent for
// chunk rows [lo, hi) of mat, writing placements into out at absolute
// row positions.
func (c *Compiled) routeTrainedChunk(mat vecmath.Matrix, lo, hi int, out []Placement, sc *routeScratch) {
	m := hi - lo
	ref := grow32(&sc.ref, m)
	xn := growF(&sc.xn, m)
	pd := growF(&sc.pd, m)
	cur := grow32(&sc.cur, m)
	act := sc.act[:0]
	for i := 0; i < m; i++ {
		row := mat.Row(lo + i)
		key := unsafe.String((*byte)(unsafe.Pointer(&row[0])), len(row)*8)
		if j, ok := sc.seen[key]; ok {
			ref[i] = int32(j)
			continue
		}
		sc.seen[key] = i
		ref[i] = int32(i)
		cur[i] = 0
		xn[i] = vecmath.SumSquares(row)
		pd[i] = math.NaN() // no parent ball at the root
		act = append(act, int32(i))
	}
	clear(sc.seen)

	nodes := len(c.nodes)
	counts := grow32(&sc.counts, nodes)
	for len(act) > 0 {
		// Counting sort groups the active records by their current node:
		// one pass to count, one stable scatter pass. Every record at the
		// same node then shares that node's GEMM blocks this level.
		for i := range counts {
			counts[i] = 0
		}
		for _, r := range act {
			counts[cur[r]]++
		}
		sum := int32(0)
		for ni := 0; ni < nodes; ni++ {
			cnt := counts[ni]
			counts[ni] = sum
			sum += cnt
		}
		order := grow32(&sc.order, len(act))
		for _, r := range act {
			order[counts[cur[r]]] = r
			counts[cur[r]]++
		}
		nxt := sc.nxt[:0]
		start := int32(0)
		for ni := 0; ni < nodes && int(start) < len(order); ni++ {
			end := counts[ni] // post-scatter: end offset of node ni's group
			if end == start {
				continue
			}
			nxt = c.routeLevelNode(mat, lo, ni, order[start:end], xn, pd, cur, out, nxt, sc)
			start = end
		}
		sc.act = act
		act = nxt
		sc.act, sc.nxt = nxt, sc.act
	}
	sc.act = act[:0]

	// Replay the placements of deduplicated rows.
	for i := 0; i < m; i++ {
		if int(ref[i]) != i {
			out[lo+i] = out[lo+int(ref[i])]
		}
	}
}

// routeLevelNode advances one node's record group by one level: the
// group is scored in GEMM blocks of the model's resolved tile rows
// against the node's weight block (or probed scalar when too small),
// each record's BMU is settled exactly, and records descending into a
// child are appended to nxt.
func (c *Compiled) routeLevelNode(mat vecmath.Matrix, lo, ni int, group []int32, xn, pd []float64, cur []int32, out []Placement, nxt []int32, sc *routeScratch) []int32 {
	nd := &c.nodes[ni]
	dim := c.dim
	if len(group) < routeGemmMin {
		for _, r := range group {
			row := mat.Row(lo + int(r))
			bmu, d2, ok := c.bmuMasked(row, nd, pd[r])
			if !ok {
				bmu, d2 = c.bmuFull(row, nd)
			}
			nxt = c.stepRecord(ni, nd, int(r), bmu, d2, true, row, cur, pd, out, lo, nxt)
		}
		return nxt
	}
	weights := c.arena[nd.weightOff : nd.weightOff+nd.units*dim]
	norms := c.norms[nd.unitBase : nd.unitBase+nd.units]
	maxN := c.nodeMaxNorm[ni]
	// The candidate set is the effective codebook; a node with no trained
	// units falls back to the full map, exactly like the scalar descent.
	units := c.trainedIdx[nd.trainedBase : nd.trainedBase+nd.trainedLen]
	masked := len(units) > 0
	if !masked {
		all := grow32(&sc.allIdx, nd.units)
		for u := range all {
			all[u] = int32(u)
		}
		units = all
	}
	tileRows := c.tile.Rows()
	for gLo := 0; gLo < len(group); gLo += tileRows {
		gHi := gLo + tileRows
		if gHi > len(group) {
			gHi = len(group)
		}
		blk := group[gLo:gHi]
		gidx := sc.gidx[:0]
		for _, r := range blk {
			gidx = append(gidx, lo+int(r))
		}
		sc.gidx = gidx
		if cap(sc.scores) < len(blk)*nd.units {
			sc.scores = make([]float64, len(blk)*nd.units)
		}
		scores := sc.scores[:len(blk)*nd.units]
		vecmath.MulBatchT(mat.Subset(gidx), weights, scores)
		for k, r := range blk {
			row := mat.Row(lo + int(r))
			bmu, d2, haveD2 := c.settleNode(row, xn[r], nd, norms, maxN, units, masked, scores[k*nd.units:(k+1)*nd.units])
			nxt = c.stepRecord(ni, nd, int(r), bmu, d2, haveD2, row, cur, pd, out, lo, nxt)
		}
	}
	return nxt
}

// stepRecord places record r at its leaf or descends it one level. When
// the settle skipped the canonical distance (haveD2 false, interior
// fast path) and the unit turns out to be a leaf, the canonical distance
// of the winner is computed here — exactly one canonical scan per
// record, at the only level whose QE is observable.
func (c *Compiled) stepRecord(ni int, nd *compiledNode, r, bmu int, d2 float64, haveD2 bool, row []float64, cur []int32, pd []float64, out []Placement, lo int, nxt []int32) []int32 {
	child := c.childIndex[nd.unitBase+bmu]
	if child < 0 {
		if !haveD2 {
			d2 = vecmath.SquaredDistanceFlat(row, c.arena, nd.weightOff+bmu*c.dim)
		}
		out[lo+r] = Placement{NodeID: ni, Unit: bmu, Depth: nd.depth, QE: math.Sqrt(d2)}
		return nxt
	}
	cur[r] = child
	if haveD2 {
		pd[r] = math.Sqrt(d2)
	} else {
		pd[r] = math.NaN() // scalar fallback below just skips the annulus screen
	}
	return append(nxt, int32(r))
}

// settleNode resolves one record's BMU at one node from its GEMM dot
// row, byte-identically to the scalar descent (bmuMasked with bmuFull
// fallback): expanded-form distances nominate candidates within the
// settle margin, the canonical kernel judges them (ties to the lowest
// unit index), and degenerate magnitudes or empty candidate sets fall
// back to the scalar kernels. units is the ascending candidate set —
// the node's trained units (masked true) or every unit when none
// trained, mirroring the scalar fallback chain. haveD2 reports whether
// d2 is the settled canonical distance; it is false on the interior
// fast path where a single candidate survived and no canonical scan was
// needed. dots is overwritten with expanded distances.
func (c *Compiled) settleNode(row []float64, xn float64, nd *compiledNode, norms []float64, maxN float64, units []int32, masked bool, dots []float64) (int, float64, bool) {
	scalar := func() (int, float64, bool) {
		if masked {
			if bmu, d2, ok := c.bmuMasked(row, nd, math.NaN()); ok {
				return bmu, d2, true
			}
		}
		bmu, d2 := c.bmuFull(row, nd)
		return bmu, d2, true
	}
	if !vecmath.ExpandGuardOK(xn, maxN) {
		return scalar()
	}
	minD := math.Inf(1)
	for _, u32 := range units {
		u := u32
		d := xn + norms[u] - 2*dots[u]
		dots[u] = d
		if d < minD {
			minD = d
		}
	}
	thr := minD + vecmath.ExpandSettleRel*(xn+maxN)
	cand, ncand := -1, 0
	for _, u32 := range units {
		if dots[u32] <= thr {
			cand = int(u32)
			if ncand++; ncand > 1 {
				break
			}
		}
	}
	if ncand == 1 {
		// The scalar winner is always within the margin, so a unique
		// candidate is it; its canonical distance is deferred until
		// observable (leaf QE).
		return cand, 0, false
	}
	best, bestVal := -1, math.Inf(1)
	for _, u32 := range units {
		u := int(u32)
		if dots[u] <= thr {
			if d := vecmath.SquaredDistanceFlat(row, c.arena, nd.weightOff+u*c.dim); d < bestVal {
				best, bestVal = u, d
			}
		}
	}
	if best >= 0 {
		return best, bestVal, true
	}
	// All candidate distances were NaN: defer to the scalar kernels,
	// whose degenerate contracts are authoritative.
	return scalar()
}

// Decompile rebuilds the pointer-tree GHSOM from the compiled tables —
// the inverse of Compile, used when a binary envelope is loaded and the
// structural API (Stats, TreeString, U-matrices) is still wanted. The
// rebuilt model routes byte-identically to the Compiled.
func (c *Compiled) Decompile() (*GHSOM, error) {
	g := &GHSOM{
		cfg:  c.cfg,
		dim:  c.dim,
		mean: append([]float64(nil), c.mean...),
		mqe0: c.mqe0,
	}
	g.nodes = make([]*Node, len(c.nodes))
	for i := range c.nodes {
		nd := &c.nodes[i]
		m, err := som.New(nd.rows, nd.cols, c.dim)
		if err != nil {
			return nil, fmt.Errorf("core: decompile node %d: %w", i, err)
		}
		for u := 0; u < nd.units; u++ {
			off := nd.weightOff + u*c.dim
			if err := m.SetWeight(u, c.arena[off:off+c.dim]); err != nil {
				return nil, fmt.Errorf("core: decompile node %d unit %d: %w", i, u, err)
			}
		}
		counts := make([]int, nd.units)
		qes := make([]float64, nd.units)
		for u := 0; u < nd.units; u++ {
			counts[u] = int(c.counts[nd.unitBase+u])
			qes[u] = c.unitQE[nd.unitBase+u]
		}
		g.nodes[i] = &Node{
			ID:         i,
			Depth:      nd.depth,
			Map:        m,
			ParentUnit: nd.parentUnit,
			UnitQE:     qes,
			UnitCount:  counts,
		}
	}
	for i := range c.nodes {
		nd := &c.nodes[i]
		if nd.parent == -1 {
			if g.root != nil {
				return nil, fmt.Errorf("core: decompile: multiple roots (%d and %d)", g.root.ID, i)
			}
			g.root = g.nodes[i]
			continue
		}
		if nd.parent < 0 || nd.parent >= len(c.nodes) {
			return nil, fmt.Errorf("core: decompile node %d: parent %d out of range", i, nd.parent)
		}
		p := g.nodes[nd.parent]
		if p.Children == nil {
			p.Children = make(map[int]*Node)
		}
		p.Children[nd.parentUnit] = g.nodes[i]
	}
	if g.root == nil {
		return nil, fmt.Errorf("core: decompile: model has no root node")
	}
	return g, nil
}
