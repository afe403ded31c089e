package core

import (
	"fmt"
	"math"

	"ghsom/internal/parallel"
	"ghsom/internal/vecmath"
)

// Placement identifies where a vector lands in the hierarchy: the leaf node
// reached by descending best-matching units, the winning unit on that map,
// and the quantization error there.
type Placement struct {
	// NodeID is the ID of the leaf node (the deepest map reached).
	NodeID int
	// Unit is the best-matching unit index on that map.
	Unit int
	// Depth is the leaf node's layer.
	Depth int
	// QE is the Euclidean distance from the vector to the winning unit's
	// weight.
	QE float64
}

// Key returns a compact stable identifier for the (node, unit) pair,
// suitable as a map key for unit labeling.
func (p Placement) Key() UnitKey { return UnitKey{NodeID: p.NodeID, Unit: p.Unit} }

// UnitKey identifies one unit of one map in a trained hierarchy.
type UnitKey struct {
	// NodeID is the map's ID within the model.
	NodeID int
	// Unit is the unit index within that map.
	Unit int
}

// String renders the key as "node/unit".
func (k UnitKey) String() string { return fmt.Sprintf("%d/%d", k.NodeID, k.Unit) }

// Route descends the hierarchy from the root, at each map following the
// best-matching unit into its child map if one exists, and returns the
// final placement. Route never fails on a trained model; a dimension
// mismatch returns a Placement with QE = NaN.
//
// This is the pointer-tree reference walk. The serving hot path routes
// through the compiled representation instead (Compile → Compiled.Route
// and friends), which produces byte-identical placements from flat
// tables; the tree walk remains the semantic baseline the compiled
// kernels are equivalence-tested against.
func (g *GHSOM) Route(x []float64) Placement {
	if len(x) != g.dim {
		return Placement{NodeID: -1, Unit: -1, QE: math.NaN()}
	}
	node := g.root
	for {
		bmu, d2 := node.Map.BMU(x)
		child, ok := node.Children[bmu]
		if !ok {
			return Placement{NodeID: node.ID, Unit: bmu, Depth: node.Depth, QE: math.Sqrt(d2)}
		}
		node = child
	}
}

// RouteTrained is like Route but restricts the BMU search at every map to
// units that won at least one training record, falling back to the full
// map when none did. Growth interpolation leaves some units with no
// training data; routing test records onto those data-less units would
// give them no label evidence, so the detection layer routes through the
// effective codebook instead.
func (g *GHSOM) RouteTrained(x []float64) Placement {
	if len(x) != g.dim {
		return Placement{NodeID: -1, Unit: -1, QE: math.NaN()}
	}
	return g.routeTrainedRow(x)
}

// routeTrainedRow is the validated effective-codebook descent kernel:
// len(x) == g.dim. It is allocation-free (BMUMasked instead of a
// per-level predicate closure) and shared by RouteTrained and
// RouteTrainedFlat so the per-record and batch paths cannot diverge.
func (g *GHSOM) routeTrainedRow(x []float64) Placement {
	node := g.root
	for {
		bmu, d2, ok := node.Map.BMUMasked(x, node.UnitCount)
		if !ok {
			bmu, d2 = node.Map.BMU(x)
		}
		child, exists := node.Children[bmu]
		if !exists {
			return Placement{NodeID: node.ID, Unit: bmu, Depth: node.Depth, QE: math.Sqrt(d2)}
		}
		node = child
	}
}

// RouteTrainedFlat routes every row of the flat row-major batch (n rows
// of Dim() values) through the effective codebook, writing placements
// into out, which must have length at least n. Rows are routed
// concurrently in chunks of one GEMM tile of rows (0 = GOMAXPROCS
// workers, 1 = serial); placements are positionally stable and
// identical to calling RouteTrained per row at every setting. This is the
// batch BMU descent under anomaly batch quantization: beyond the worker
// goroutines it performs no per-row allocation.
func (g *GHSOM) RouteTrainedFlat(flat []float64, n int, out []Placement, parallelism int) error {
	if len(flat) < n*g.dim {
		return fmt.Errorf("core: route flat batch of %d rows from %d values, want >= %d", n, len(flat), n*g.dim)
	}
	if len(out) < n {
		return fmt.Errorf("core: route flat batch of %d rows into %d placements", n, len(out))
	}
	parallel.ForEachChunk(nil, parallelism, n, vecmath.DefaultTileRows, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = g.routeTrainedRow(flat[i*g.dim : (i+1)*g.dim])
		}
		return nil
	})
	return nil
}

// RouteAll routes every row of data and returns the placements.
func (g *GHSOM) RouteAll(data [][]float64) []Placement {
	out := make([]Placement, len(data))
	for i, x := range data {
		out[i] = g.Route(x)
	}
	return out
}

// Path returns the chain of (nodeID, unit) hops from the root map to the
// leaf placement for x, in order. Useful for explaining a classification.
func (g *GHSOM) Path(x []float64) []UnitKey {
	if len(x) != g.dim {
		return nil
	}
	var path []UnitKey
	node := g.root
	for {
		bmu, _ := node.Map.BMU(x)
		path = append(path, UnitKey{NodeID: node.ID, Unit: bmu})
		child, ok := node.Children[bmu]
		if !ok {
			return path
		}
		node = child
	}
}

// LeafQE returns the quantization error of x at its leaf placement. It is
// the model's raw anomaly score: large errors mean the input is far from
// everything the model learned.
func (g *GHSOM) LeafQE(x []float64) float64 {
	return g.Route(x).QE
}

// NearestUnitWeight returns a copy of the weight vector of the unit
// identified by key, or nil if the key does not exist in the model.
func (g *GHSOM) NearestUnitWeight(key UnitKey) []float64 {
	n := g.Node(key.NodeID)
	if n == nil || key.Unit < 0 || key.Unit >= n.Map.Units() {
		return nil
	}
	return vecmath.Clone(n.Map.Weight(key.Unit))
}
