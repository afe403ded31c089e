package core

import (
	"encoding/json"
	"fmt"
	"io"

	"ghsom/internal/som"
)

// modelJSON is the on-disk representation of a GHSOM.
type modelJSON struct {
	Version int        `json:"version"`
	Config  Config     `json:"config"`
	Dim     int        `json:"dim"`
	Mean    []float64  `json:"mean"`
	MQE0    float64    `json:"mqe0"`
	Nodes   []nodeJSON `json:"nodes"`
}

type nodeJSON struct {
	ID         int            `json:"id"`
	Depth      int            `json:"depth"`
	ParentID   int            `json:"parentId"` // -1 for root
	ParentUnit int            `json:"parentUnit"`
	Rows       int            `json:"rows"`
	Cols       int            `json:"cols"`
	Weights    []float64      `json:"weights"` // row-major flattened, Rows*Cols*Dim
	UnitQE     []float64      `json:"unitQe"`
	UnitCount  []int          `json:"unitCount"`
	Children   map[string]int `json:"children,omitempty"` // unit -> child node ID
}

const modelVersion = 1

// Structural caps shared by the JSON and binary loaders. They reject
// absurd shapes before any proportional allocation happens, so corrupt or
// hostile envelopes fail with an error instead of an out-of-memory panic.
const (
	maxModelDim    = 1 << 20 // feature dimensions
	maxModelNodes  = 1 << 20 // maps per hierarchy
	maxMapSide     = 1 << 16 // rows or cols of one map
	maxUnitsPerMap = 1 << 20 // rows*cols of one map
	maxTotalUnits  = 1 << 24 // units across the hierarchy
	maxArenaFloats = 1 << 27 // total weight float64s (1 GiB)
)

// Save writes the model as JSON to w.
func (g *GHSOM) Save(w io.Writer) error {
	mj := modelJSON{
		Version: modelVersion,
		Config:  g.cfg,
		Dim:     g.dim,
		Mean:    g.mean,
		MQE0:    g.mqe0,
	}
	parentOf := map[int]int{g.root.ID: -1}
	for _, n := range g.nodes {
		for _, c := range n.Children {
			parentOf[c.ID] = n.ID
		}
	}
	for _, n := range g.nodes {
		nj := nodeJSON{
			ID:         n.ID,
			Depth:      n.Depth,
			ParentID:   parentOf[n.ID],
			ParentUnit: n.ParentUnit,
			Rows:       n.Map.Rows(),
			Cols:       n.Map.Cols(),
			UnitQE:     n.UnitQE,
			UnitCount:  n.UnitCount,
		}
		nj.Weights = make([]float64, 0, n.Map.Units()*g.dim)
		for u := 0; u < n.Map.Units(); u++ {
			nj.Weights = append(nj.Weights, n.Map.Weight(u)...)
		}
		if len(n.Children) > 0 {
			nj.Children = make(map[string]int, len(n.Children))
			for u, c := range n.Children {
				nj.Children[fmt.Sprint(u)] = c.ID
			}
		}
		mj.Nodes = append(mj.Nodes, nj)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(mj); err != nil {
		return fmt.Errorf("core: encode model: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save. Input is validated
// structurally — dimensions and shapes within the package caps, weights
// arrays of exactly the declared size, child references forming a proper
// tree (in range, acyclic, each node expanded by exactly one parent unit)
// — so corrupt or truncated envelopes return errors rather than building
// a model that panics later.
func Load(r io.Reader) (*GHSOM, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if mj.Version != modelVersion {
		return nil, fmt.Errorf("core: unsupported model version %d, want %d", mj.Version, modelVersion)
	}
	if mj.Dim < 1 || mj.Dim > maxModelDim {
		return nil, fmt.Errorf("core: model dim %d outside [1, %d]", mj.Dim, maxModelDim)
	}
	if len(mj.Nodes) == 0 {
		return nil, fmt.Errorf("core: model has no nodes")
	}
	if len(mj.Nodes) > maxModelNodes {
		return nil, fmt.Errorf("core: model has %d nodes, cap %d", len(mj.Nodes), maxModelNodes)
	}
	if len(mj.Mean) != mj.Dim {
		return nil, fmt.Errorf("core: model mean has %d values, want dim %d", len(mj.Mean), mj.Dim)
	}
	g := &GHSOM{cfg: mj.Config, dim: mj.Dim, mean: mj.Mean, mqe0: mj.MQE0}
	g.nodes = make([]*Node, len(mj.Nodes))
	totalUnits := 0
	// First pass: rebuild maps.
	for i, nj := range mj.Nodes {
		if nj.ID != i {
			return nil, fmt.Errorf("core: node %d stored out of order (id %d)", i, nj.ID)
		}
		if nj.Depth < 1 {
			return nil, fmt.Errorf("core: node %d has depth %d, want >= 1", i, nj.Depth)
		}
		if nj.Rows < 1 || nj.Rows > maxMapSide || nj.Cols < 1 || nj.Cols > maxMapSide {
			return nil, fmt.Errorf("core: node %d shape %dx%d outside [1, %d]", i, nj.Rows, nj.Cols, maxMapSide)
		}
		units := nj.Rows * nj.Cols
		if units > maxUnitsPerMap {
			return nil, fmt.Errorf("core: node %d has %d units, cap %d", i, units, maxUnitsPerMap)
		}
		if totalUnits += units; totalUnits > maxTotalUnits {
			return nil, fmt.Errorf("core: model exceeds %d total units", maxTotalUnits)
		}
		// Validate the weights length before som.New allocates rows*cols*dim
		// floats, so a corrupt declared shape cannot force a huge allocation
		// that its weights array never backs.
		if want := units * mj.Dim; len(nj.Weights) != want {
			return nil, fmt.Errorf("core: node %d has %d weights, want %d", i, len(nj.Weights), want)
		}
		if len(nj.UnitQE) != 0 && len(nj.UnitQE) != units {
			return nil, fmt.Errorf("core: node %d has %d unit errors, want 0 or %d", i, len(nj.UnitQE), units)
		}
		if len(nj.UnitCount) != 0 && len(nj.UnitCount) != units {
			return nil, fmt.Errorf("core: node %d has %d unit counts, want 0 or %d", i, len(nj.UnitCount), units)
		}
		for u, cnt := range nj.UnitCount {
			if cnt < 0 {
				return nil, fmt.Errorf("core: node %d unit %d has negative count %d", i, u, cnt)
			}
		}
		m, err := som.New(nj.Rows, nj.Cols, mj.Dim)
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", i, err)
		}
		for u := 0; u < m.Units(); u++ {
			if err := m.SetWeight(u, nj.Weights[u*mj.Dim:(u+1)*mj.Dim]); err != nil {
				return nil, fmt.Errorf("core: node %d unit %d: %w", i, u, err)
			}
		}
		g.nodes[i] = &Node{
			ID:         nj.ID,
			Depth:      nj.Depth,
			Map:        m,
			ParentUnit: nj.ParentUnit,
			UnitQE:     nj.UnitQE,
			UnitCount:  nj.UnitCount,
		}
	}
	// Second pass: rebuild child links. Each child must be referenced by
	// exactly one (parent, unit) pair, one depth down from its parent.
	childSeen := make([]bool, len(g.nodes))
	for i, nj := range mj.Nodes {
		if nj.ParentID == -1 {
			if g.root != nil {
				return nil, fmt.Errorf("core: multiple roots (%d and %d)", g.root.ID, i)
			}
			// Training emits nodes in BFS order, so the root is always
			// node 0 and every child follows its parent. The compiled
			// representation and the binary writer rely on this
			// invariant, so a file violating it is corrupt.
			if i != 0 {
				return nil, fmt.Errorf("core: root stored as node %d, want 0", i)
			}
			if nj.Depth != 1 {
				return nil, fmt.Errorf("core: root node %d has depth %d, want 1", i, nj.Depth)
			}
			g.root = g.nodes[i]
		}
		if len(nj.Children) == 0 {
			continue
		}
		g.nodes[i].Children = make(map[int]*Node, len(nj.Children))
		for unitStr, childID := range nj.Children {
			var unit int
			if _, err := fmt.Sscanf(unitStr, "%d", &unit); err != nil {
				return nil, fmt.Errorf("core: node %d child key %q: %w", i, unitStr, err)
			}
			if childID < 0 || childID >= len(g.nodes) {
				return nil, fmt.Errorf("core: node %d child id %d out of range", i, childID)
			}
			if childID <= i {
				return nil, fmt.Errorf("core: node %d child id %d does not follow its parent (BFS order)", i, childID)
			}
			if unit < 0 || unit >= g.nodes[i].Map.Units() {
				return nil, fmt.Errorf("core: node %d child unit %d out of range", i, unit)
			}
			if childSeen[childID] {
				return nil, fmt.Errorf("core: node %d referenced as a child more than once", childID)
			}
			childSeen[childID] = true
			if g.nodes[childID].Depth != g.nodes[i].Depth+1 {
				return nil, fmt.Errorf("core: node %d (depth %d) has child %d at depth %d",
					i, g.nodes[i].Depth, childID, g.nodes[childID].Depth)
			}
			if _, dup := g.nodes[i].Children[unit]; dup {
				return nil, fmt.Errorf("core: node %d unit %d expanded by more than one child", i, unit)
			}
			g.nodes[i].Children[unit] = g.nodes[childID]
		}
	}
	if g.root == nil {
		return nil, fmt.Errorf("core: model has no root node")
	}
	if childSeen[g.root.ID] {
		return nil, fmt.Errorf("core: root node %d referenced as a child", g.root.ID)
	}
	for i := range g.nodes {
		if i != g.root.ID && !childSeen[i] {
			return nil, fmt.Errorf("core: node %d is unreachable (no parent reference)", i)
		}
	}
	return g, nil
}
