package core

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"ghsom/internal/parallel"
	"ghsom/internal/som"
	"ghsom/internal/vecmath"
)

// This file implements the compiled model representation: a trained GHSOM
// packed into one shared row-major weight arena plus flat routing tables,
// so the hierarchy descent — the per-record hot loop of serving — runs as
// a blocked, table-driven pass with zero pointer chasing, zero map
// lookups, and zero steady-state allocations. Placements are
// byte-identical to the pointer-tree walk (Route/RouteTrained):
// expanded-form GEMM scores only nominate candidates, and every distance
// a winner or its error depends on is accumulated in the reference
// kernel's exact term order.

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
}

// Compiled is a trained GHSOM compiled for serving: every map's weights
// from all levels live in one contiguous row-major arena, and the
// hierarchy is a flat node table plus a flat child index (one int32 per
// unit, -1 = leaf). Routing methods produce placements byte-identical to
// the equivalent *GHSOM tree walk at every Parallelism setting. The BMU
// search is f64 throughout and has one engine: every routing call — a
// batch (RouteTrainedFlat), a single record (RouteTrained) or the
// all-units walk (Route) — runs the blocked GEMM descent described at
// RouteTrainedFlat. A Compiled is immutable after construction and safe
// for concurrent use.
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
// from the counts table, then the norm tables of the descent.
func (c *Compiled) buildTrainedIndex() {
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
	c.buildNormTables()
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

// NumNodes returns the number of maps in the hierarchy.
func (c *Compiled) NumNodes() int { return len(c.nodes) }

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
// table, child index, counts, unit errors, trained unit lists, and the
// norm caches of the descent).
func (c *Compiled) TableBytes() int {
	const nodeBytes = 10 * 8 // compiledNode fields
	return len(c.nodes)*nodeBytes +
		len(c.childIndex)*4 +
		len(c.counts)*8 +
		len(c.unitQE)*8 +
		len(c.trainedIdx)*4 +
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

// Route descends the compiled hierarchy by full-map best-matching units,
// exactly like GHSOM.Route: a dimension mismatch returns a Placement with
// QE = NaN, and placements are byte-identical to the tree walk. It is a
// one-row call of the blocked descent with every unit as the candidate
// set.
func (c *Compiled) Route(x []float64) Placement { return c.routeRow(x, false) }

// RouteTrained descends through the effective codebook (units that won
// training data, falling back to the full map when a node has none),
// exactly like GHSOM.RouteTrained, with byte-identical placements. It is
// a one-row call of the same blocked descent as RouteTrainedFlat.
func (c *Compiled) RouteTrained(x []float64) Placement { return c.routeRow(x, true) }

// routeRow routes one record through routeChunk on pooled scratch, so a
// lone record costs no steady-state allocation.
func (c *Compiled) routeRow(x []float64, trained bool) Placement {
	if len(x) != c.dim {
		return Placement{NodeID: -1, Unit: -1, QE: math.NaN()}
	}
	mat, err := vecmath.MatrixOver(x, 1, c.dim)
	if err != nil {
		return Placement{NodeID: -1, Unit: -1, QE: math.NaN()}
	}
	sc := routeScratchPool.Get().(*routeScratch)
	c.routeChunk(mat, 0, 1, sc.one[:], sc, trained)
	p := sc.one[0]
	routeScratchPool.Put(sc)
	return p
}

// routeScratchPool recycles the per-worker state of the blocked descent:
// the duplicate-row index, the per-record descent state, and the GEMM
// score tiles. The dedup index is emptied before a chunk returns, so no
// caller memory is retained across calls.
var routeScratchPool = sync.Pool{
	New: func() any { return &routeScratch{seen: make(map[string]int)} },
}

type routeScratch struct {
	seen   map[string]int
	ref    []int32   // per chunk row: chunk-relative representative (dedup)
	xn     []float64 // per unique row: squared record norm
	cur    []int32   // per unique row: current node of the descent
	act    []int32   // active unique rows (not yet placed)
	nxt    []int32   // next level's active rows (double buffer)
	counts []int32   // per node: counting-sort state, all zero between levels
	live   []int32   // nodes holding active rows this level, first-seen order
	order  []int32   // active rows grouped by node
	gidx   []int     // absolute matrix rows of one GEMM tile
	allIdx []int32   // 0..units-1 candidate set (untrained nodes, Route)
	scores []float64 // GEMM tile: records×units dots, then expanded distances
	one    [1]Placement
}

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
// compiled norm tables). Expanded distances only nominate candidates;
// winners are settled with the canonical kernel, interior levels skip
// the canonical scan entirely when a single candidate survives the
// margin, and records whose magnitudes fall outside the expanded form's
// error model take a plain canonical scan, so placements stay
// byte-identical to the per-record tree walk. The dedup index keys alias
// the caller's flat buffer only for the duration of the call (the caller
// must not mutate flat concurrently, which the batch contract already
// requires) and are deleted before the scratch returns to its pool.
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
		c.routeChunk(mat, lo, hi, out, scratches[wk], true)
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

// rowKey is the dedup index key of a row: its bytes, aliased in place.
func rowKey(row []float64) string {
	return unsafe.String((*byte)(unsafe.Pointer(&row[0])), len(row)*8)
}

// routeChunk runs the deduplicated level-synchronous descent for chunk
// rows [lo, hi) of mat, writing placements into out at absolute row
// positions. trained selects the effective codebook (RouteTrained) over
// the full map (Route). Its fixed cost scales with the chunk: a lone row
// skips the dedup index, and each level groups only the nodes that
// active rows occupy.
func (c *Compiled) routeChunk(mat vecmath.Matrix, lo, hi int, out []Placement, sc *routeScratch, trained bool) {
	m := hi - lo
	ref := grow32(&sc.ref, m)
	xn := growF(&sc.xn, m)
	cur := grow32(&sc.cur, m)
	act := sc.act[:0]
	for i := 0; i < m; i++ {
		row := mat.Row(lo + i)
		if m > 1 {
			key := rowKey(row)
			if j, ok := sc.seen[key]; ok {
				ref[i] = int32(j)
				continue
			}
			sc.seen[key] = i
		}
		ref[i] = int32(i)
		cur[i] = 0
		xn[i] = vecmath.SumSquares(row)
		act = append(act, int32(i))
	}
	if m > 1 {
		for _, r := range act {
			delete(sc.seen, rowKey(mat.Row(lo+int(r))))
		}
	}

	// The counts table is sized for the model but kept all zero between
	// levels, so each level touches only the entries of live nodes.
	counts := sc.counts
	if len(counts) < len(c.nodes) {
		counts = make([]int32, len(c.nodes))
		sc.counts = counts
	}
	for len(act) > 0 {
		// Counting sort groups the active records by their current node:
		// one pass to count (noting each node on first sight), one stable
		// scatter pass. Every record at the same node then shares that
		// node's GEMM blocks this level.
		live := sc.live[:0]
		for _, r := range act {
			if counts[cur[r]] == 0 {
				live = append(live, cur[r])
			}
			counts[cur[r]]++
		}
		sc.live = live
		sum := int32(0)
		for _, ni := range live {
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
		for _, ni := range live {
			end := counts[ni] // post-scatter: end offset of node ni's group
			counts[ni] = 0
			nxt = c.routeLevelNode(mat, lo, int(ni), order[start:end], xn, cur, out, nxt, sc, trained)
			start = end
		}
		sc.act, sc.nxt = nxt, act
		act = nxt
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
// against the node's weight block, each record's BMU is settled exactly,
// and records descending into a child are appended to nxt.
func (c *Compiled) routeLevelNode(mat vecmath.Matrix, lo, ni int, group []int32, xn []float64, cur []int32, out []Placement, nxt []int32, sc *routeScratch, trained bool) []int32 {
	nd := &c.nodes[ni]
	dim := c.dim
	weights := c.arena[nd.weightOff : nd.weightOff+nd.units*dim]
	norms := c.norms[nd.unitBase : nd.unitBase+nd.units]
	maxN := c.nodeMaxNorm[ni]
	// The candidate set is the effective codebook; a node with no trained
	// units — or any node of the all-units walk — takes the full map.
	var units []int32
	if trained {
		units = c.trainedIdx[nd.trainedBase : nd.trainedBase+nd.trainedLen]
	}
	if len(units) == 0 {
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
		scores := growF(&sc.scores, len(blk)*nd.units)
		vecmath.MulBatchT(mat.Subset(gidx), weights, scores)
		for k, r := range blk {
			row := mat.Row(lo + int(r))
			bmu, d2, haveD2 := c.settleNode(row, xn[r], nd, norms, maxN, units, scores[k*nd.units:(k+1)*nd.units])
			nxt = c.stepRecord(ni, nd, int(r), bmu, d2, haveD2, row, cur, out, lo, nxt)
		}
	}
	return nxt
}

// stepRecord places record r at its leaf or descends it one level. When
// the settle skipped the canonical distance (haveD2 false, interior
// fast path) and the unit turns out to be a leaf, the canonical distance
// of the winner is computed here — exactly one canonical scan per
// record, at the only level whose QE is observable.
func (c *Compiled) stepRecord(ni int, nd *compiledNode, r, bmu int, d2 float64, haveD2 bool, row []float64, cur []int32, out []Placement, lo int, nxt []int32) []int32 {
	child := c.childIndex[nd.unitBase+bmu]
	if child < 0 {
		if !haveD2 {
			d2 = vecmath.SquaredDistanceFlat(row, c.arena, nd.weightOff+bmu*c.dim)
		}
		out[lo+r] = Placement{NodeID: ni, Unit: bmu, Depth: nd.depth, QE: math.Sqrt(d2)}
		return nxt
	}
	cur[r] = child
	return append(nxt, int32(r))
}

// settleNode resolves one record's BMU at one node from its GEMM dot
// row, byte-identically to the tree walk's ascending scan (BMUMasked
// with BMU fallback): expanded-form distances nominate candidates within
// the settle margin, the canonical kernel judges them (ties to the
// lowest unit index), and degenerate magnitudes or all-NaN candidates
// fall back to scanNode. units is the ascending candidate set. haveD2
// reports whether d2 is the settled canonical distance; it is false on
// the interior fast path where a single candidate survived and no
// canonical scan was needed. dots is overwritten with expanded
// distances.
func (c *Compiled) settleNode(row []float64, xn float64, nd *compiledNode, norms []float64, maxN float64, units []int32, dots []float64) (int, float64, bool) {
	if !vecmath.ExpandGuardOK(xn, maxN) {
		bmu, d2 := c.scanNode(row, nd, units)
		return bmu, d2, true
	}
	minD := math.Inf(1)
	for _, u := range units {
		d := xn + norms[u] - 2*dots[u]
		dots[u] = d
		if d < minD {
			minD = d
		}
	}
	thr := minD + vecmath.ExpandSettleRel*(xn+maxN)
	cand, ncand := -1, 0
	for _, u := range units {
		if dots[u] <= thr {
			cand = int(u)
			if ncand++; ncand > 1 {
				break
			}
		}
	}
	if ncand == 1 {
		// The canonical winner is always within the margin, so a unique
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
	bmu, d2 := c.scanNode(row, nd, units)
	return bmu, d2, true
}

// scanNode is the plain ascending canonical BMU scan of one node — the
// contract of som.Map.BMUMasked falling back to BMU in the tree walk:
// the lowest-index strict minimum over the candidate set, else over the
// full map, else unit 0 at +Inf (every distance NaN or +Inf).
func (c *Compiled) scanNode(row []float64, nd *compiledNode, units []int32) (int, float64) {
	best, bestVal := -1, math.Inf(1)
	for _, u32 := range units {
		u := int(u32)
		if d := vecmath.SquaredDistanceFlat(row, c.arena, nd.weightOff+u*c.dim); d < bestVal {
			best, bestVal = u, d
		}
	}
	if best < 0 {
		best, bestVal = vecmath.ArgMinDistance(row, c.arena[nd.weightOff:nd.weightOff+nd.units*c.dim])
	}
	if best < 0 {
		return 0, math.Inf(1)
	}
	return best, bestVal
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
