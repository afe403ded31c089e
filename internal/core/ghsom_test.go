package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ghsom/internal/som"
)

// approxEqual reports whether a and b have the same length and every pair
// of elements differs by at most tol.
func approxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !(math.Abs(a[i]-b[i]) <= tol) {
			return false
		}
	}
	return true
}

// blobs generates n points per center from tight gaussian blobs.
func blobs(rng *rand.Rand, nPer int, spread float64, centers ...[]float64) [][]float64 {
	data := make([][]float64, 0, nPer*len(centers))
	for _, c := range centers {
		for i := 0; i < nPer; i++ {
			x := make([]float64, len(c))
			for d := range x {
				x[d] = c[d] + rng.NormFloat64()*spread
			}
			data = append(data, x)
		}
	}
	return data
}

// fourBlobs is the standard test workload: four well-separated clusters in
// 2D, enough structure to force both horizontal growth and (with small
// tau2) vertical expansion.
func fourBlobs(seed int64, nPer int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	return blobs(rng, nPer, 0.3,
		[]float64{0, 0}, []float64{10, 0}, []float64{0, 10}, []float64{10, 10})
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.EpochsPerGrowth = 3
	cfg.FineTuneEpochs = 3
	cfg.MaxGrowIters = 8
	cfg.MinMapData = 10
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"tau1 zero", func(c *Config) { c.Tau1 = 0 }},
		{"tau1 above one", func(c *Config) { c.Tau1 = 1.5 }},
		{"tau2 zero", func(c *Config) { c.Tau2 = 0 }},
		{"tau2 negative", func(c *Config) { c.Tau2 = -0.1 }},
		{"maxDepth zero", func(c *Config) { c.MaxDepth = 0 }},
		{"maxMapUnits small", func(c *Config) { c.MaxMapUnits = 3 }},
		{"negative growIters", func(c *Config) { c.MaxGrowIters = -1 }},
		{"minMapData zero", func(c *Config) { c.MinMapData = 0 }},
		{"epochs zero", func(c *Config) { c.EpochsPerGrowth = 0 }},
		{"negative fineTune", func(c *Config) { c.FineTuneEpochs = -1 }},
		{"alpha0 zero", func(c *Config) { c.Alpha0 = 0 }},
		{"alphaEnd above alpha0", func(c *Config) { c.Alpha0 = 0.1; c.AlphaEnd = 0.5 }},
		{"bad kernel", func(c *Config) { c.Kernel = som.Kernel(77) }},
		{"bad decay", func(c *Config) { c.Decay = som.Decay(0) }},
		{"negative spread", func(c *Config) { c.InitSpread = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Validate = %v, want ErrBadConfig", err)
			}
			if _, err := Train(fourBlobs(1, 5), cfg); err == nil {
				t.Error("Train accepted invalid config")
			}
		})
	}
}

func TestTrainRejectsBadData(t *testing.T) {
	cfg := quickConfig()
	if _, err := Train(nil, cfg); !errors.Is(err, ErrNoData) {
		t.Errorf("Train(nil) err = %v, want ErrNoData", err)
	}
	if _, err := Train([][]float64{{1, 2}, {1}}, cfg); err == nil {
		t.Error("Train accepted ragged data")
	}
	if _, err := Train([][]float64{{1, math.NaN()}}, cfg); err == nil {
		t.Error("Train accepted NaN data")
	}
	if _, err := Train([][]float64{{1, math.Inf(1)}}, cfg); err == nil {
		t.Error("Train accepted Inf data")
	}
}

func TestTrainBasicStructure(t *testing.T) {
	data := fourBlobs(2, 100)
	cfg := quickConfig()
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.dim != 2 {
		t.Errorf("dim = %d", g.dim)
	}
	if g.mqe0 <= 0 {
		t.Errorf("mqe0 = %v, want > 0", g.mqe0)
	}
	if g.Root() == nil {
		t.Fatal("no root")
	}
	if g.Root().Depth != 1 {
		t.Errorf("root depth = %d", g.Root().Depth)
	}
	if g.Root().ParentUnit != -1 {
		t.Errorf("root ParentUnit = %d, want -1", g.Root().ParentUnit)
	}
	st := g.Stats()
	if st.Maps < 1 || st.Units < 4 {
		t.Errorf("stats = %+v", st)
	}
	// Four separated blobs need at least 4 units to quantize.
	if st.Units < 4 {
		t.Errorf("too few units: %d", st.Units)
	}
	// Node IDs must be dense and match slice positions.
	for i, n := range g.Nodes() {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
	}
}

func TestTrainSeparatesBlobCenters(t *testing.T) {
	data := fourBlobs(3, 150)
	cfg := quickConfig()
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}}
	seen := make(map[UnitKey]bool)
	for _, c := range centers {
		p := g.Route(c)
		if p.QE > 2 {
			t.Errorf("center %v lands far from any unit: QE %v", c, p.QE)
		}
		seen[p.Key()] = true
	}
	if len(seen) < 4 {
		t.Errorf("blob centers share leaf units: %d distinct of 4", len(seen))
	}
}

func TestTrainGrowsBeyondInitialMap(t *testing.T) {
	// With 8 well-separated blobs and a strict tau1, the layer-1 map must
	// grow beyond 2x2 to meet the criterion.
	rng := rand.New(rand.NewSource(4))
	data := blobs(rng, 60, 0.2,
		[]float64{0, 0}, []float64{8, 0}, []float64{16, 0}, []float64{24, 0},
		[]float64{0, 8}, []float64{8, 8}, []float64{16, 8}, []float64{24, 8})
	cfg := quickConfig()
	cfg.Tau1 = 0.2
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Root().Map.Units() <= 4 {
		t.Errorf("root map did not grow: %dx%d", g.Root().Map.Rows(), g.Root().Map.Cols())
	}
}

func TestTrainExpandsHierarchy(t *testing.T) {
	// Hierarchical data: two macro-clusters, each containing two
	// micro-clusters. With tau2 small, units should expand.
	rng := rand.New(rand.NewSource(5))
	data := blobs(rng, 120, 0.1,
		[]float64{0, 0}, []float64{1.5, 0}, // macro A, micro 1+2
		[]float64{20, 20}, []float64{21.5, 20}) // macro B, micro 1+2
	cfg := quickConfig()
	cfg.Tau1 = 0.8 // keep layer-1 small
	cfg.Tau2 = 0.01
	cfg.MaxGrowIters = 2
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.MaxDepth < 2 {
		t.Errorf("hierarchy did not expand: depth = %d, stats %v", st.MaxDepth, st)
	}
	// Parent links must be consistent.
	for _, n := range g.Nodes() {
		for u, c := range n.Children {
			if c.ParentUnit != u {
				t.Errorf("child node %d ParentUnit = %d, want %d", c.ID, c.ParentUnit, u)
			}
			if c.Depth != n.Depth+1 {
				t.Errorf("child node %d depth = %d, parent depth %d", c.ID, c.Depth, n.Depth)
			}
		}
	}
}

func TestTrainRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := blobs(rng, 200, 1.0, []float64{0, 0})
	cfg := quickConfig()
	cfg.Tau2 = 0.0001 // wants infinite depth
	cfg.Tau1 = 0.99
	cfg.MaxDepth = 2
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.MaxDepth > 2 {
		t.Errorf("depth %d exceeds MaxDepth 2", st.MaxDepth)
	}
}

func TestTrainRespectsMaxMapUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := blobs(rng, 40, 0.2,
		[]float64{0, 0}, []float64{5, 0}, []float64{10, 0}, []float64{15, 0},
		[]float64{0, 5}, []float64{5, 5}, []float64{10, 5}, []float64{15, 5})
	cfg := quickConfig()
	cfg.Tau1 = 0.01 // wants a huge map
	cfg.MaxMapUnits = 9
	cfg.MaxGrowIters = 50
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		// One growth step adds a full row or column, so the cap can be
		// exceeded by at most one insertion's worth of units.
		if n.Map.Units() > cfg.MaxMapUnits+maxInt(n.Map.Rows(), n.Map.Cols()) {
			t.Errorf("node %d grew to %d units, cap %d", n.ID, n.Map.Units(), cfg.MaxMapUnits)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestTrainDeterministic(t *testing.T) {
	data := fourBlobs(8, 80)
	cfg := quickConfig()
	g1, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Nodes()) != len(g2.Nodes()) {
		t.Fatalf("node counts differ: %d vs %d", len(g1.Nodes()), len(g2.Nodes()))
	}
	for i := range g1.Nodes() {
		n1, n2 := g1.Nodes()[i], g2.Nodes()[i]
		if n1.Map.Rows() != n2.Map.Rows() || n1.Map.Cols() != n2.Map.Cols() {
			t.Fatalf("node %d shapes differ", i)
		}
		for u := 0; u < n1.Map.Units(); u++ {
			if !slices.Equal(n1.Map.Weight(u), n2.Map.Weight(u)) {
				t.Fatalf("node %d unit %d weights differ", i, u)
			}
		}
	}
}

func TestTrainSeedChangesModel(t *testing.T) {
	data := fourBlobs(9, 80)
	cfg := quickConfig()
	g1, _ := Train(data, cfg)
	cfg.Seed = 999
	g2, _ := Train(data, cfg)
	same := len(g1.Nodes()) == len(g2.Nodes())
	if same {
		for i := range g1.Nodes() {
			n1, n2 := g1.Nodes()[i], g2.Nodes()[i]
			if n1.Map.Units() != n2.Map.Units() {
				same = false
				break
			}
			for u := 0; same && u < n1.Map.Units(); u++ {
				if !slices.Equal(n1.Map.Weight(u), n2.Map.Weight(u)) {
					same = false
				}
			}
		}
	}
	if same {
		t.Error("different seeds produced identical models (suspicious)")
	}
}

func TestTrainConstantData(t *testing.T) {
	// All-identical records: mqe0 = 0, no growth, no expansion, no panic.
	data := make([][]float64, 50)
	for i := range data {
		data[i] = []float64{3, 3, 3}
	}
	cfg := quickConfig()
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.mqe0 != 0 {
		t.Errorf("mqe0 = %v, want 0", g.mqe0)
	}
	st := g.Stats()
	if st.Maps != 1 || st.MaxDepth != 1 {
		t.Errorf("constant data should yield a single map: %v", st)
	}
	p := g.Route([]float64{3, 3, 3})
	if p.QE > 0.5 {
		t.Errorf("QE at training point = %v", p.QE)
	}
}

func TestTrainSingleRecord(t *testing.T) {
	cfg := quickConfig()
	cfg.MinMapData = 1
	g, err := Train([][]float64{{1, 2}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Route([]float64{1, 2})
	if p.QE > 0.5 {
		t.Errorf("single-record model QE = %v", p.QE)
	}
}

func TestBatchTrainingMode(t *testing.T) {
	data := fourBlobs(10, 80)
	cfg := quickConfig()
	cfg.Batch = true
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Batch-trained model must still quantize the blobs tightly.
	for _, c := range [][]float64{{0, 0}, {10, 10}} {
		if p := g.Route(c); p.QE > 2 {
			t.Errorf("batch model QE at %v = %v", c, p.QE)
		}
	}
}

func TestUnitQEAndCountsConsistent(t *testing.T) {
	data := fourBlobs(11, 60)
	g, err := Train(data, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Root unit counts must sum to the full data set.
	var total int
	for _, c := range g.Root().UnitCount {
		total += c
	}
	if total != len(data) {
		t.Errorf("root UnitCount sums to %d, want %d", total, len(data))
	}
	for _, n := range g.Nodes() {
		if len(n.UnitQE) != n.Map.Units() || len(n.UnitCount) != n.Map.Units() {
			t.Errorf("node %d stats length mismatch", n.ID)
		}
		for u, qe := range n.UnitQE {
			if qe < 0 {
				t.Errorf("node %d unit %d negative QE", n.ID, u)
			}
			if n.UnitCount[u] == 0 && qe != 0 {
				t.Errorf("node %d unit %d empty but QE %v", n.ID, u, qe)
			}
		}
	}
}

func TestOrientationCorners(t *testing.T) {
	m, err := som.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Gradient map: weight = (row, col).
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			_ = m.SetWeight(m.Index(r, c), []float64{float64(r), float64(c)})
		}
	}
	corners := orientationCorners(m, m.Index(1, 1))
	if len(corners) != 4 {
		t.Fatalf("got %d corners", len(corners))
	}
	// For the center unit: up-left direction = ((-1,0)+(0,-1))/2 = (-0.5,-0.5).
	want := [][]float64{
		{-0.5, -0.5}, {-0.5, 0.5}, {0.5, -0.5}, {0.5, 0.5},
	}
	for i := range want {
		if !approxEqual(corners[i], want[i], 1e-12) {
			t.Errorf("corner %d = %v, want %v", i, corners[i], want[i])
		}
	}
	// Corner unit (0,0): out-of-grid directions contribute zero.
	corners = orientationCorners(m, m.Index(0, 0))
	// up and left are zero; up-left mix = (0,0); down-right = ((1,0)+(0,1))/2.
	if !approxEqual(corners[0], []float64{0, 0}, 1e-12) {
		t.Errorf("corner-unit up-left = %v, want origin", corners[0])
	}
	if !approxEqual(corners[3], []float64{0.5, 0.5}, 1e-12) {
		t.Errorf("corner-unit down-right = %v", corners[3])
	}
}

func TestOrientChildrenToggleChangesChildren(t *testing.T) {
	// Hierarchical data that forces expansion; the toggle must flip child
	// initialization while both configurations still train successfully.
	rng := rand.New(rand.NewSource(60))
	data := blobs(rng, 120, 0.1,
		[]float64{0, 0}, []float64{1.5, 0},
		[]float64{20, 20}, []float64{21.5, 20})
	cfg := quickConfig()
	cfg.Tau1 = 0.8
	cfg.Tau2 = 0.01
	cfg.OrientChildren = true
	gOn, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OrientChildren = false
	gOff, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gOn.Stats().MaxDepth < 2 || gOff.Stats().MaxDepth < 2 {
		t.Skip("no expansion occurred; toggle not exercised")
	}
	// Both models quantize the micro-clusters tightly.
	for _, c := range [][]float64{{0, 0}, {1.5, 0}, {20, 20}, {21.5, 20}} {
		if p := gOn.Route(c); p.QE > 1 {
			t.Errorf("oriented model QE at %v = %v", c, p.QE)
		}
		if p := gOff.Route(c); p.QE > 1 {
			t.Errorf("unoriented model QE at %v = %v", c, p.QE)
		}
	}
}

func TestGrowthTrace(t *testing.T) {
	data := fourBlobs(12, 80)
	cfg := quickConfig()
	cfg.CollectTrace = true
	cfg.Tau1 = 0.2
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Trace()
	if tr == nil || len(tr.Events) == 0 {
		t.Fatal("trace empty despite CollectTrace")
	}
	rootEvents := tr.ForNode(g.Root().ID)
	if len(rootEvents) == 0 {
		t.Fatal("no events for root")
	}
	// Iterations must start at 0 and increase; unit counts must be
	// non-decreasing within a node.
	prevIter, prevUnits := -1, 0
	for _, e := range rootEvents {
		if e.Iteration != prevIter+1 {
			t.Errorf("iteration jump: %d after %d", e.Iteration, prevIter)
		}
		if e.Rows*e.Cols < prevUnits {
			t.Errorf("unit count decreased: %d -> %d", prevUnits, e.Rows*e.Cols)
		}
		prevIter, prevUnits = e.Iteration, e.Rows*e.Cols
	}
	// Without the flag there is no trace.
	cfg.CollectTrace = false
	g2, _ := Train(data, cfg)
	if g2.Trace() != nil {
		t.Error("trace collected without CollectTrace")
	}
}
