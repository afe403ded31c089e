package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// compileTestModel trains a deep-ish hierarchy for compilation tests.
func compileTestModel(t testing.TB, seed int64, nPer int) (*GHSOM, [][]float64) {
	t.Helper()
	data := fourBlobs(seed, nPer)
	cfg := quickConfig()
	cfg.MaxDepth = 3
	g, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, data
}

// queryMix returns the training data plus perturbed, far-out, and
// degenerate queries, exercising both codebook hits and novelty paths.
func queryMix(data [][]float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := append([][]float64(nil), data...)
	for i := 0; i < 200; i++ {
		x := make([]float64, len(data[0]))
		for d := range x {
			x[d] = rng.NormFloat64() * 20
		}
		out = append(out, x)
	}
	out = append(out, []float64{math.NaN(), math.NaN()})
	out = append(out, []float64{math.Inf(1), 0})
	return out
}

// TestCompiledRouteEquivalence pins the core guarantee: the compiled
// table-driven descent produces placements byte-identical to the pointer
// tree walk, for both full-map and effective-codebook routing.
func TestCompiledRouteEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		g, data := compileTestModel(t, seed, 60)
		c := Compile(g)
		for i, x := range queryMix(data, seed+1) {
			want, got := g.Route(x), c.Route(x)
			if !placementsBitIdentical(want, got) {
				t.Fatalf("seed %d query %d: Route tree %+v, compiled %+v", seed, i, want, got)
			}
			wantT, gotT := g.RouteTrained(x), c.RouteTrained(x)
			if !placementsBitIdentical(wantT, gotT) {
				t.Fatalf("seed %d query %d: RouteTrained tree %+v, compiled %+v", seed, i, wantT, gotT)
			}
		}
		// Dimension mismatch sentinel.
		bad := []float64{1, 2, 3}
		if p := c.Route(bad); p.NodeID != -1 || p.Unit != -1 || !math.IsNaN(p.QE) {
			t.Fatalf("dim mismatch Route = %+v", p)
		}
		if p := c.RouteTrained(bad); p.NodeID != -1 || !math.IsNaN(p.QE) {
			t.Fatalf("dim mismatch RouteTrained = %+v", p)
		}
	}
}

// placementsBitIdentical compares placements treating NaN QE as equal to
// NaN QE (bit-level equality intent).
func placementsBitIdentical(a, b Placement) bool {
	if a.NodeID != b.NodeID || a.Unit != b.Unit || a.Depth != b.Depth {
		return false
	}
	if math.IsNaN(a.QE) && math.IsNaN(b.QE) {
		return true
	}
	return math.Float64bits(a.QE) == math.Float64bits(b.QE)
}

// TestCompiledRouteFlatParallelism verifies the batch descents are
// positionally stable and identical to the per-row calls at every worker
// bound (run under -race in CI, which also proves data-race freedom).
func TestCompiledRouteFlatParallelism(t *testing.T) {
	g, data := compileTestModel(t, 3, 80)
	c := Compile(g)
	queries := queryMix(data, 4)
	// Keep only dim-matched rows for the flat batch.
	dim := c.Dim()
	flat := make([]float64, 0, len(queries)*dim)
	n := 0
	for _, x := range queries {
		if len(x) == dim {
			flat = append(flat, x...)
			n++
		}
	}
	want := make([]Placement, n)
	for i := range want {
		want[i] = g.RouteTrained(flat[i*dim : (i+1)*dim])
	}
	for _, par := range []int{1, 2, 3, 8, 0} {
		got := make([]Placement, n)
		if err := c.RouteTrainedFlat(flat, n, got, par); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !placementsBitIdentical(want[i], got[i]) {
				t.Fatalf("par %d row %d: tree %+v, compiled %+v", par, i, want[i], got[i])
			}
		}
	}
}

// TestCompiledStatsMatchTree verifies the flat tables carry the same
// structure the tree reports.
func TestCompiledStatsMatchTree(t *testing.T) {
	g, _ := compileTestModel(t, 5, 60)
	c := Compile(g)
	ts, cs := g.Stats(), c.Stats()
	if ts.Maps != cs.Maps || ts.Units != cs.Units || ts.LeafUnits != cs.LeafUnits ||
		ts.MaxDepth != cs.MaxDepth || ts.LargestMapUnits != cs.LargestMapUnits {
		t.Fatalf("stats differ: tree %+v, compiled %+v", ts, cs)
	}
	for d := range ts.MapsPerDepth {
		if ts.MapsPerDepth[d] != cs.MapsPerDepth[d] || ts.UnitsPerDepth[d] != cs.UnitsPerDepth[d] {
			t.Fatalf("depth %d structure differs: tree %+v, compiled %+v", d, ts, cs)
		}
	}
	if c.NumNodes() != ts.Maps || len(c.childIndex) != ts.Units {
		t.Fatalf("NumNodes/units = %d/%d, want %d/%d", c.NumNodes(), len(c.childIndex), ts.Maps, ts.Units)
	}
	if c.ArenaBytes() != ts.Units*c.Dim()*8 {
		t.Fatalf("ArenaBytes = %d", c.ArenaBytes())
	}
	if c.TableBytes() <= 0 {
		t.Fatal("TableBytes not positive")
	}
}

// TestCompiledDecompileRoundTrip verifies Compile → Decompile preserves
// the model exactly: the decompiled tree serializes byte-identically to
// the original, keeps every node's ID and depth (which the blob derives
// rather than stores), and routes identically.
func TestCompiledDecompileRoundTrip(t *testing.T) {
	g, data := compileTestModel(t, 9, 60)
	c := Compile(g)
	back, err := c.Decompile()
	if err != nil {
		t.Fatal(err)
	}
	orig, rt := modelBytes(t, g), modelBytes(t, back)
	if !bytes.Equal(orig, rt) {
		t.Fatalf("decompiled model serializes differently (%d vs %d bytes)", len(orig), len(rt))
	}
	if len(back.Nodes()) != len(g.Nodes()) {
		t.Fatalf("decompiled model has %d nodes, want %d", len(back.Nodes()), len(g.Nodes()))
	}
	for i, n := range g.Nodes() {
		if m := back.Nodes()[i]; m.ID != n.ID || m.Depth != n.Depth {
			t.Fatalf("node %d: decompiled ID/depth %d/%d, want %d/%d", i, m.ID, m.Depth, n.ID, n.Depth)
		}
	}
	for i, x := range data {
		if want, got := g.RouteTrained(x), back.RouteTrained(x); !placementsBitIdentical(want, got) {
			t.Fatalf("row %d: decompiled route differs: %+v vs %+v", i, want, got)
		}
	}
}

// TestCompiledBinaryRoundTrip verifies WriteBinaryAt →
// ReadCompiledBinaryBytes → WriteBinaryAt is bit-identical and the
// reloaded model routes identically.
func TestCompiledBinaryRoundTrip(t *testing.T) {
	g, data := compileTestModel(t, 13, 60)
	c := Compile(g)
	var blob1 bytes.Buffer
	if err := c.WriteBinaryAt(&blob1, 0); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCompiledBinaryBytes(blob1.Bytes(), false)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.MappedBytes() != 0 {
		t.Fatalf("copy-mode load reports %d mapped bytes", loaded.MappedBytes())
	}
	var blob2 bytes.Buffer
	if err := loaded.WriteBinaryAt(&blob2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob1.Bytes(), blob2.Bytes()) {
		t.Fatalf("binary round trip not bit-identical (%d vs %d bytes)", blob1.Len(), blob2.Len())
	}
	for i, x := range queryMix(data, 14) {
		if len(x) != c.Dim() {
			continue
		}
		if want, got := c.RouteTrained(x), loaded.RouteTrained(x); !placementsBitIdentical(want, got) {
			t.Fatalf("query %d: reloaded route differs: %+v vs %+v", i, want, got)
		}
	}
	if cfg := loaded.Config(); cfg.Tau1 != c.Config().Tau1 || cfg.Seed != c.Config().Seed {
		t.Fatalf("reloaded config differs: %+v", cfg)
	}
	if loaded.mqe0 != c.mqe0 {
		t.Fatal("reloaded mqe0 differs")
	}
}

// TestReadCompiledBinaryRejectsCorrupt walks truncations and targeted
// mutations of a valid blob; every one must error (or load to a routable
// model), never panic.
func TestReadCompiledBinaryRejectsCorrupt(t *testing.T) {
	g, _ := compileTestModel(t, 17, 40)
	c := Compile(g)
	var blob bytes.Buffer
	if err := c.WriteBinaryAt(&blob, 0); err != nil {
		t.Fatal(err)
	}
	raw := blob.Bytes()
	// Truncations at every prefix length on a coarse grid plus the exact
	// boundaries near the header.
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := ReadCompiledBinaryBytes(raw[:cut], false); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Bit flips across the header and tables.
	for pos := 0; pos < len(raw); pos += 11 {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x41
		m, err := ReadCompiledBinaryBytes(mut, false)
		if err != nil {
			continue
		}
		// A mutation that still loads must still route safely.
		x := make([]float64, m.Dim())
		_ = m.RouteTrained(x)
	}
	if _, err := ReadCompiledBinaryBytes(nil, false); err == nil {
		t.Error("empty blob accepted")
	}
	if _, err := ReadCompiledBinaryBytes([]byte("GHSOMCB1"), false); err == nil {
		t.Error("magic-only blob accepted")
	}
}

// BenchmarkRouteTree and BenchmarkRouteCompiled are the CI smoke pair for
// the routing dataplane: tree-walk vs compiled table-driven descent on
// the same model and queries (serial, per-record throughput). The data
// is synthetic clusters at a KDD-like dimensionality, so the smoke
// numbers approximate the real encoded operating point; the production
// pipeline model's routing cost is servebench's core.route_ns stage.
func benchRouteSetup(b *testing.B) (*GHSOM, *Compiled, []float64, int) {
	const dim = 48
	rng := rand.New(rand.NewSource(21))
	centers := make([][]float64, 6)
	for i := range centers {
		c := make([]float64, dim)
		for d := range c {
			c[d] = rng.Float64() * 10
		}
		centers[i] = c
	}
	// Traffic-shaped mix: cluster sizes are skewed (a dominant class, like
	// DoS in KDD traces) and part of the dominant class repeats one exact
	// vector, like a flood repeating one encoded record.
	sizes := []int{450, 200, 120, 70, 40, 20}
	flood := make([]float64, dim)
	for d := range flood {
		flood[d] = centers[0][d] + rng.NormFloat64()*0.1
	}
	data := make([][]float64, 0, 900)
	for ci, size := range sizes {
		for i := 0; i < size; i++ {
			if ci == 0 && i%2 == 0 {
				data = append(data, flood)
				continue
			}
			x := make([]float64, dim)
			for d := range x {
				x[d] = centers[ci][d] + rng.NormFloat64()*0.3
			}
			data = append(data, x)
		}
	}
	cfg := quickConfig()
	cfg.MaxDepth = 3
	g, err := Train(data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := Compile(g)
	flat := make([]float64, 0, len(data)*dim)
	for _, x := range data {
		flat = append(flat, x...)
	}
	return g, c, flat, len(data)
}

func BenchmarkRouteTree(b *testing.B) {
	g, _, flat, n := benchRouteSetup(b)
	dim := g.dim
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < n; r++ {
			g.RouteTrained(flat[r*dim : (r+1)*dim])
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "records/sec")
}

func BenchmarkRouteCompiled(b *testing.B) {
	_, c, flat, n := benchRouteSetup(b)
	out := make([]Placement, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.RouteTrainedFlat(flat, n, out, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "records/sec")
}
