package anomaly

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"ghsom/internal/baseline"
	"ghsom/internal/core"
	"ghsom/internal/som"
)

// GHSOMQuantizer adapts a trained GHSOM to the Quantizer interface: the
// cell is the hierarchical leaf placement "nodeID/unit". Routing uses
// RouteTrained so classification stays on the effective codebook (units
// that won training data).
//
// Build it with NewGHSOMQuantizer over a compiled model (core.Compile):
// routing runs on the flat-arena blocked GEMM descent — no pointer
// chasing, no map lookups; Quantize is its one-row call, QuantizeBatch
// its batch form — and the constructor precomputes the
// "nodeID/unit" cell name of every unit in the hierarchy, so Quantize and
// QuantizeBatch hand out shared immutable strings instead of formatting
// one per record. The zero value is not a usable quantizer.
type GHSOMQuantizer struct {
	// compiled is the flat-arena model the quantizer routes on.
	compiled *core.Compiled
	// names caches the cell name of every (node, unit) pair, indexed by
	// node ID then unit.
	names [][]string
}

var (
	_ Quantizer       = GHSOMQuantizer{}
	_ BatchQuantizer  = GHSOMQuantizer{}
	_ WeightQuantizer = GHSOMQuantizer{}
)

// NewGHSOMQuantizer builds the adapter over a compiled model, with its
// cell-name cache. Placements (and therefore cells and verdicts) are
// byte-identical to routing through the pointer tree the model was
// compiled from.
func NewGHSOMQuantizer(compiled *core.Compiled) GHSOMQuantizer {
	names := make([][]string, compiled.NumNodes())
	for id := range names {
		units := make([]string, compiled.NodeUnits(id))
		for u := range units {
			units[u] = core.UnitKey{NodeID: id, Unit: u}.String()
		}
		names[id] = units
	}
	return GHSOMQuantizer{compiled: compiled, names: names}
}

// Quantize routes x down the hierarchy.
func (g GHSOMQuantizer) Quantize(x []float64) (string, float64) {
	p := g.compiled.RouteTrained(x)
	return g.cellName(p), p.QE
}

// placeScratchPool recycles the Placement scratch QuantizeBatch hands to
// the model's flat batch descent.
var placeScratchPool = sync.Pool{
	New: func() any { return &placeScratch{buf: make([]core.Placement, 256)} },
}

type placeScratch struct{ buf []core.Placement }

// completeRows returns how many full d-wide rows flat actually holds, at
// most n — the defensive clamp shared by the batch quantizers so a
// truncated batch degrades to sentinels instead of panicking.
func completeRows(flat []float64, n, d int) int {
	if d <= 0 || n <= 0 {
		return 0
	}
	if rows := len(flat) / d; rows < n {
		return rows
	}
	return n
}

// padSentinel fills out[rows:n] — rows a truncated batch could not
// provide — with the given degenerate-quantization sentinel.
func padSentinel(out []CellQE, rows, n int, cell string) {
	for i := rows; i < n; i++ {
		out[i] = CellQE{Cell: cell, QE: math.NaN()}
	}
}

// QuantizeBatch routes the flat batch down the hierarchy via the
// compiled batch descent (RouteTrainedFlat, serial within the batch —
// ClassifyBatchAt parallelizes across chunks), writing cells and
// quantization errors into out. The steady state performs no per-row
// allocation; the Placement scratch is pooled. Rows whose width d does
// not match the model get Quantize's dimension-mismatch sentinel, and a
// truncated flat (fewer than n complete rows) yields sentinels for the
// missing tail instead of panicking.
func (g GHSOMQuantizer) QuantizeBatch(flat []float64, n, d int, out []CellQE) {
	rows := completeRows(flat, n, d)
	if d != g.compiled.Dim() {
		rows = 0
	}
	defer padSentinel(out, rows, n, "-1/-1")
	if rows == 0 {
		return
	}
	scratch := placeScratchPool.Get().(*placeScratch)
	if cap(scratch.buf) < rows {
		scratch.buf = make([]core.Placement, rows)
	}
	places := scratch.buf[:rows]
	// rows complete full-width rows are guaranteed above, so the descent
	// cannot fail.
	_ = g.compiled.RouteTrainedFlat(flat, rows, places, 1)
	for i := 0; i < rows; i++ {
		out[i] = CellQE{Cell: g.cellName(places[i]), QE: places[i].QE}
	}
	placeScratchPool.Put(scratch)
}

// cellName resolves a placement to its cell string, preferring the cached
// table and falling back to formatting for cache misses (foreign node
// IDs, dimension-mismatch placements with NodeID -1).
func (g GHSOMQuantizer) cellName(p core.Placement) string {
	if p.NodeID >= 0 && p.NodeID < len(g.names) {
		if units := g.names[p.NodeID]; p.Unit >= 0 && p.Unit < len(units) {
			return units[p.Unit]
		}
	}
	return p.Key().String()
}

// CellWeight returns the weight vector of a "nodeID/unit" cell, or nil
// for malformed or unknown identifiers.
func (g GHSOMQuantizer) CellWeight(cell string) []float64 {
	var nodeID, unit int
	if _, err := fmt.Sscanf(cell, "%d/%d", &nodeID, &unit); err != nil {
		return nil
	}
	return g.compiled.UnitWeight(nodeID, unit)
}

// SOMQuantizer adapts a flat SOM: the cell is the BMU index. When
// UnitCounts (per-unit training record counts, e.g. from Map.Assign over
// the training set) is set, the BMU search is restricted to units with
// data, mirroring GHSOMQuantizer's effective-codebook routing.
type SOMQuantizer struct {
	// Map is the trained SOM.
	Map *som.Map
	// UnitCounts optionally restricts matching to units that won
	// training data.
	UnitCounts []int
}

var (
	_ Quantizer      = SOMQuantizer{}
	_ BatchQuantizer = SOMQuantizer{}
)

// Quantize finds the best-matching unit of x.
func (s SOMQuantizer) Quantize(x []float64) (string, float64) {
	if s.UnitCounts != nil {
		bmu, d2, ok := s.Map.BMUMasked(x, s.UnitCounts)
		if ok {
			return strconv.Itoa(bmu), math.Sqrt(d2)
		}
	}
	bmu, d2 := s.Map.BMU(x)
	return strconv.Itoa(bmu), math.Sqrt(d2)
}

// bmuScratchPool recycles the AssignFlat outputs of SOMQuantizer batches.
var bmuScratchPool = sync.Pool{New: func() any { return &bmuScratch{} }}

type bmuScratch struct {
	bmus []int
	d2s  []float64
}

// QuantizeBatch assigns the flat batch through the map's batch BMU
// kernel (AssignFlat, pinned serial — ClassifyBatchAt already
// parallelizes across chunks). Effective-codebook maps (UnitCounts set)
// and rows whose width d does not match the map fall back to per-row
// Quantize; a truncated flat yields sentinels for the missing tail. Cell
// names are formatted per row (the flat-SOM baseline path does not cache
// them).
func (s SOMQuantizer) QuantizeBatch(flat []float64, n, d int, out []CellQE) {
	rows := completeRows(flat, n, d)
	defer padSentinel(out, rows, n, "")
	if d != s.Map.Dim() || s.UnitCounts != nil {
		for i := 0; i < rows; i++ {
			out[i].Cell, out[i].QE = s.Quantize(flat[i*d : (i+1)*d])
		}
		return
	}
	if rows == 0 {
		return
	}
	scratch := bmuScratchPool.Get().(*bmuScratch)
	if cap(scratch.bmus) < rows {
		scratch.bmus = make([]int, rows)
		scratch.d2s = make([]float64, rows)
	}
	bmus, d2s := scratch.bmus[:rows], scratch.d2s[:rows]
	// rows complete full-width rows are guaranteed above, so the
	// assignment cannot fail.
	_ = s.Map.AssignFlat(flat[:rows*d], rows, bmus, d2s, 1)
	for i := 0; i < rows; i++ {
		out[i] = CellQE{Cell: strconv.Itoa(bmus[i]), QE: math.Sqrt(d2s[i])}
	}
	bmuScratchPool.Put(scratch)
}

// KMeansQuantizer adapts a k-means codebook: the cell is the centroid
// index.
type KMeansQuantizer struct {
	// Model is the trained clustering.
	Model *baseline.KMeans
}

var _ Quantizer = KMeansQuantizer{}

// Quantize assigns x to its nearest centroid.
func (k KMeansQuantizer) Quantize(x []float64) (string, float64) {
	c, dist := k.Model.Assign(x)
	return strconv.Itoa(c), dist
}

// AggloQuantizer adapts an agglomerative clustering codebook: the cell is
// the cluster index of the dendrogram cut.
type AggloQuantizer struct {
	// Model is the trained clustering.
	Model *baseline.Agglo
}

var _ Quantizer = AggloQuantizer{}

// Quantize assigns x to its nearest cluster centroid.
func (a AggloQuantizer) Quantize(x []float64) (string, float64) {
	c, dist := a.Model.Assign(x)
	return strconv.Itoa(c), dist
}
