package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func trainedModel(t *testing.T) *GHSOM {
	t.Helper()
	data := fourBlobs(20, 100)
	cfg := quickConfig()
	cfg.Tau1 = 0.5
	cfg.Tau2 = 0.02
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRouteReachesLeaf(t *testing.T) {
	g := trainedModel(t)
	p := g.Route([]float64{0, 0})
	if p.NodeID < 0 || p.Unit < 0 {
		t.Fatalf("invalid placement %+v", p)
	}
	node := g.Node(p.NodeID)
	if node == nil {
		t.Fatal("placement references unknown node")
	}
	if !node.IsLeafUnit(p.Unit) {
		t.Error("Route stopped at a unit that has a child")
	}
	if p.Depth != node.Depth {
		t.Errorf("placement depth %d, node depth %d", p.Depth, node.Depth)
	}
	if math.IsNaN(p.QE) || p.QE < 0 {
		t.Errorf("bad QE %v", p.QE)
	}
}

func TestRouteDimensionMismatch(t *testing.T) {
	g := trainedModel(t)
	p := g.Route([]float64{1, 2, 3})
	if p.NodeID != -1 || !math.IsNaN(p.QE) {
		t.Errorf("dim mismatch placement = %+v, want sentinel", p)
	}
	if g.Path([]float64{1}) != nil {
		t.Error("Path with wrong dim should be nil")
	}
}

func TestPathConsistentWithRoute(t *testing.T) {
	g := trainedModel(t)
	for _, x := range [][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}} {
		path := g.Path(x)
		if len(path) == 0 {
			t.Fatal("empty path")
		}
		p := g.Route(x)
		last := path[len(path)-1]
		if last != p.Key() {
			t.Errorf("path end %v != route key %v", last, p.Key())
		}
		// First hop is always on the root map.
		if path[0].NodeID != g.Root().ID {
			t.Errorf("path starts at node %d, want root %d", path[0].NodeID, g.Root().ID)
		}
		// Path length equals placement depth.
		if len(path) != p.Depth {
			t.Errorf("path length %d != depth %d", len(path), p.Depth)
		}
	}
}

func TestPropRouteAlwaysTerminatesAtLeaf(t *testing.T) {
	g := trainedModel(t)
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 500; i++ {
		x := []float64{rng.NormFloat64() * 20, rng.NormFloat64() * 20}
		p := g.Route(x)
		n := g.Node(p.NodeID)
		if n == nil {
			t.Fatalf("iteration %d: placement node missing", i)
		}
		if !n.IsLeafUnit(p.Unit) {
			t.Fatalf("iteration %d: placement not at leaf", i)
		}
		if p.QE < 0 || math.IsNaN(p.QE) {
			t.Fatalf("iteration %d: bad QE %v", i, p.QE)
		}
	}
}

func TestRouteTrainedStaysOnCodebook(t *testing.T) {
	g := trainedModel(t)
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 300; i++ {
		x := []float64{rng.NormFloat64() * 20, rng.NormFloat64() * 20}
		p := g.RouteTrained(x)
		n := g.Node(p.NodeID)
		if n == nil {
			t.Fatal("placement node missing")
		}
		// Every RouteTrained placement must carry training evidence
		// (unless the whole map won nothing, which cannot happen for a
		// trained model's visited maps).
		if n.UnitCount[p.Unit] == 0 {
			t.Fatalf("RouteTrained landed on a data-less unit: node %d unit %d", p.NodeID, p.Unit)
		}
		if p.QE < 0 || math.IsNaN(p.QE) {
			t.Fatalf("bad QE %v", p.QE)
		}
	}
}

func TestRouteTrainedQEAtLeastRoute(t *testing.T) {
	// Restricting the search space cannot find a closer unit than the
	// unrestricted search on the same map; across maps the leaf may
	// differ, but for training points the two agree almost always. Check
	// the weaker invariant on training-like data.
	g := trainedModel(t)
	for _, x := range [][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}} {
		full := g.Route(x)
		trained := g.RouteTrained(x)
		if trained.QE+1e-9 < 0 {
			t.Fatal("negative QE")
		}
		// Training cluster centers must route identically.
		if full.Key() != trained.Key() {
			t.Errorf("center %v: Route %v vs RouteTrained %v", x, full.Key(), trained.Key())
		}
	}
}

func TestRouteTrainedDimMismatch(t *testing.T) {
	g := trainedModel(t)
	p := g.RouteTrained([]float64{1})
	if p.NodeID != -1 || !math.IsNaN(p.QE) {
		t.Errorf("dim mismatch placement = %+v", p)
	}
}

// TestRouteTrainedFlatMatchesPerRow verifies the compiled flat batch
// descent is bit-identical to the tree walk's RouteTrained per row at
// every worker count.
func TestRouteTrainedFlatMatchesPerRow(t *testing.T) {
	g := trainedModel(t)
	c := Compile(g)
	rng := rand.New(rand.NewSource(44))
	n := 400
	flat := make([]float64, n*g.dim)
	for i := range flat {
		flat[i] = rng.NormFloat64() * 15
	}
	want := make([]Placement, n)
	for i := 0; i < n; i++ {
		want[i] = g.RouteTrained(flat[i*g.dim : (i+1)*g.dim])
	}
	for _, p := range []int{1, 2, 8, 0} {
		out := make([]Placement, n)
		if err := c.RouteTrainedFlat(flat, n, out, p); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("p=%d row %d: flat %+v, per-row %+v", p, i, out[i], want[i])
			}
		}
	}
}

func TestRouteTrainedFlatValidation(t *testing.T) {
	c := Compile(trainedModel(t))
	flat := make([]float64, 3*c.Dim())
	if err := c.RouteTrainedFlat(flat, 4, make([]Placement, 4), 1); err == nil {
		t.Error("short flat accepted")
	}
	if err := c.RouteTrainedFlat(flat, 3, make([]Placement, 2), 1); err == nil {
		t.Error("short out accepted")
	}
	// Empty batches are no-ops.
	if err := c.RouteTrainedFlat(nil, 0, nil, 1); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestCompiledUnitWeight(t *testing.T) {
	g := trainedModel(t)
	c := Compile(g)
	p := c.Route([]float64{0, 0})
	w := c.UnitWeight(p.NodeID, p.Unit)
	if w == nil {
		t.Fatal("nil weight for valid key")
	}
	if !slices.Equal(w, g.Node(p.NodeID).Map.Weight(p.Unit)) {
		t.Errorf("UnitWeight = %v, tree weight %v", w, g.Node(p.NodeID).Map.Weight(p.Unit))
	}
	// Mutating the returned slice must not affect the model.
	w[0] = 1e9
	if c.UnitWeight(p.NodeID, p.Unit)[0] == 1e9 {
		t.Error("UnitWeight exposes internal storage")
	}
	if c.UnitWeight(-1, 0) != nil {
		t.Error("invalid node should return nil")
	}
	if c.UnitWeight(0, 9999) != nil {
		t.Error("invalid unit should return nil")
	}
}

func TestUnitKeyString(t *testing.T) {
	k := UnitKey{NodeID: 3, Unit: 7}
	if k.String() != "3/7" {
		t.Errorf("String = %q", k.String())
	}
}

func TestTreeString(t *testing.T) {
	g := trainedModel(t)
	s := g.TreeString()
	if !strings.Contains(s, "[node 0]") {
		t.Errorf("TreeString missing root: %q", s)
	}
	if !strings.Contains(s, "depth=1") {
		t.Error("TreeString missing depth")
	}
	// Line count equals map count.
	lines := strings.Count(strings.TrimRight(s, "\n"), "\n") + 1
	if lines != g.Stats().Maps {
		t.Errorf("TreeString has %d lines, want %d maps", lines, g.Stats().Maps)
	}
}

func TestStatsInternalConsistency(t *testing.T) {
	g := trainedModel(t)
	st := g.Stats()
	var mapsSum, unitsSum int
	for d := range st.MapsPerDepth {
		mapsSum += st.MapsPerDepth[d]
		unitsSum += st.UnitsPerDepth[d]
	}
	if mapsSum != st.Maps {
		t.Errorf("MapsPerDepth sums to %d, want %d", mapsSum, st.Maps)
	}
	if unitsSum != st.Units {
		t.Errorf("UnitsPerDepth sums to %d, want %d", unitsSum, st.Units)
	}
	if st.LeafUnits > st.Units {
		t.Error("more leaf units than units")
	}
	if st.LargestMapUnits > st.Units {
		t.Error("largest map bigger than total")
	}
	if !strings.Contains(st.String(), "maps=") {
		t.Error("Stats.String malformed")
	}
}
