package core

import (
	"bytes"
	"math/rand"
	"testing"
)

func clusteredData(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{
		{0, 0, 0}, {5, 5, 0}, {0, 5, 5}, {5, 0, 5},
	}
	data := make([][]float64, n)
	for i := range data {
		c := centers[rng.Intn(len(centers))]
		data[i] = []float64{
			c[0] + rng.NormFloat64()*0.3,
			c[1] + rng.NormFloat64()*0.3,
			c[2] + rng.NormFloat64()*0.3,
		}
	}
	return data
}

// wideClusteredData draws n points of the given dimension around a
// two-level cluster hierarchy — six coarse centers, each with four
// nearby sub-centers — so the GHSOM needs a third layer to resolve it.
// At this width every map of two units or more runs the blocked BMU
// engine (the dim-3 data keeps maps under 43 units on the scalar scan).
func wideClusteredData(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	center := func(spread float64, base []float64) []float64 {
		c := make([]float64, dim)
		for d := range c {
			c[d] = rng.NormFloat64() * spread
			if base != nil {
				c[d] += base[d]
			}
		}
		return c
	}
	var subs [][]float64
	for k := 0; k < 6; k++ {
		top := center(4, nil)
		for j := 0; j < 4; j++ {
			subs = append(subs, center(0.8, top))
		}
	}
	data := make([][]float64, n)
	for i := range data {
		data[i] = center(0.15, subs[rng.Intn(len(subs))])
	}
	return data
}

// parallelTestInput is one training input of the determinism tests.
type parallelTestInput struct {
	name  string
	data  [][]float64
	depth int // minimum hierarchy depth the input must grow
}

// parallelTestInputs returns the dim-3 clustered input and a dim-40 one
// that grows at least three layers.
func parallelTestInputs(n int, seed int64) []parallelTestInput {
	return []parallelTestInput{
		{name: "dim3", data: clusteredData(n, seed), depth: 2},
		{name: "dim40", data: wideClusteredData(n, 40, seed), depth: 3},
	}
}

// parallelTestWidths are the Parallelism settings compared against 1.
var parallelTestWidths = []int{2, 3, 8, 0}

// trainCfgForParallelTest builds a config that reliably produces a
// multi-level hierarchy on the clustered data, so the parallel expansion
// path actually runs with more than one job per level.
func trainCfgForParallelTest(parallelism int) Config {
	cfg := DefaultConfig()
	cfg.Tau1 = 0.5
	cfg.Tau2 = 0.05
	cfg.MinMapData = 20
	cfg.MaxDepth = 3
	cfg.Parallelism = parallelism
	return cfg
}

// TestTrainByteIdenticalAcrossParallelism is the headline determinism
// guarantee: for a fixed seed and data, serial and parallel training must
// produce byte-identical serialized models, under both training rules.
func TestTrainByteIdenticalAcrossParallelism(t *testing.T) {
	for _, in := range parallelTestInputs(1200, 4) {
		for _, batch := range []bool{false, true} {
			serialize := func(p int) []byte {
				cfg := trainCfgForParallelTest(p)
				cfg.Batch = batch
				g, err := Train(in.data, cfg)
				if err != nil {
					t.Fatalf("%s batch=%v parallelism %d: %v", in.name, batch, p, err)
				}
				if p == 1 {
					if d := g.Stats().MaxDepth; d < in.depth {
						t.Fatalf("%s batch=%v: depth %d, want >= %d", in.name, batch, d, in.depth)
					}
				}
				var buf bytes.Buffer
				if err := g.Save(&buf); err != nil {
					t.Fatalf("%s parallelism %d: save: %v", in.name, p, err)
				}
				return buf.Bytes()
			}
			ref := serialize(1)
			for _, p := range parallelTestWidths {
				if got := serialize(p); !bytes.Equal(got, ref) {
					t.Errorf("%s batch=%v: Parallelism=%d model differs from Parallelism=1 (lens %d vs %d)",
						in.name, batch, p, len(got), len(ref))
				}
			}
		}
	}
}

// TestTrainParallelStructure sanity-checks that the parallel path produces
// a real hierarchy (the guarantee above would hold trivially for a single
// root map).
func TestTrainParallelStructure(t *testing.T) {
	data := clusteredData(1200, 4)
	g, err := Train(data, trainCfgForParallelTest(8))
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Maps < 3 {
		t.Fatalf("expected a multi-map hierarchy, got %d maps", st.Maps)
	}
	// Node IDs must be the stable BFS order: the slice index, with depths
	// non-decreasing.
	prevDepth := 0
	for i, n := range g.Nodes() {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
		if n.Depth < prevDepth {
			t.Errorf("node %d depth %d after depth %d: not BFS order", i, n.Depth, prevDepth)
		}
		prevDepth = n.Depth
	}
}

// TestTrainTraceIdenticalAcrossParallelism pins the growth-trace ordering:
// events are grouped per node in ID order regardless of worker count.
func TestTrainTraceIdenticalAcrossParallelism(t *testing.T) {
	for _, in := range parallelTestInputs(900, 11) {
		for _, batch := range []bool{false, true} {
			trace := func(p int) []GrowthEvent {
				cfg := trainCfgForParallelTest(p)
				cfg.Batch = batch
				cfg.CollectTrace = true
				g, err := Train(in.data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := g.Stats().MaxDepth; d < in.depth {
					t.Fatalf("%s batch=%v: depth %d, want >= %d", in.name, batch, d, in.depth)
				}
				return g.Trace().Events
			}
			ref := trace(1)
			for _, p := range parallelTestWidths {
				got := trace(p)
				if len(ref) != len(got) {
					t.Fatalf("%s batch=%v P=%d: trace lengths differ: %d vs %d", in.name, batch, p, len(ref), len(got))
				}
				for i := range ref {
					if ref[i] != got[i] {
						t.Fatalf("%s batch=%v P=%d: trace event %d differs: %+v vs %+v", in.name, batch, p, i, ref[i], got[i])
					}
				}
			}
		}
	}
}

func TestDeriveSeedStable(t *testing.T) {
	// Distinct paths must get distinct streams; same path the same stream.
	seen := map[int64]string{}
	root := deriveSeed(1, -1)
	seen[root] = "root"
	for u := 0; u < 32; u++ {
		s := deriveSeed(root, u)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and root/%d", prev, u)
		}
		seen[s] = "root/" + string(rune('0'+u))
		for v := 0; v < 8; v++ {
			s2 := deriveSeed(s, v)
			if prev, dup := seen[s2]; dup {
				t.Fatalf("seed collision at depth 2 (%s)", prev)
			}
			seen[s2] = "deep"
		}
	}
	if deriveSeed(1, -1) != root {
		t.Error("deriveSeed not stable across calls")
	}
}
