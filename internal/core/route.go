package core

import (
	"fmt"
	"math"
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
// This is the pointer-tree reference walk, kept only as the per-row
// reference the compiled kernels are equivalence-tested against. All
// production routing — serving, the evaluation suite, the examples'
// detectors — goes through the compiled representation (Compile →
// Compiled.Route and friends), which produces byte-identical placements
// from flat tables.
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
