package core

import (
	"math"
	"math/rand"
	"testing"

	"ghsom/internal/som"
	"ghsom/internal/vecmath"
)

// nearTieModel hand-builds a hierarchy whose unit weights are
// adversarial for the expanded-form candidate generator: exact duplicate
// units (zero-distance ties that must resolve to the lowest index),
// units separated by single ULPs (candidates the settle margin must hand
// to the exact kernel), an untrained unit (masked routing), and an
// untrained child map (full-map fallback).
func nearTieModel(t *testing.T) *GHSOM {
	t.Helper()
	const dim = 6
	mkMap := func(rows, cols int, weights [][]float64) *som.Map {
		m, err := som.New(rows, cols, dim)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range weights {
			if err := m.SetWeight(i, w); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	base := []float64{0.5, 0.25, 0.75, 0.125, 0.625, 0.375}
	bump := func(w []float64, ulps int) []float64 {
		out := append([]float64(nil), w...)
		for k := 0; k < ulps; k++ {
			out[0] = math.Nextafter(out[0], 2)
		}
		return out
	}
	far := []float64{10, 10, 10, 10, 10, 10}
	root := mkMap(2, 2, [][]float64{base, bump(base, 1), bump(base, 2), far})
	// Child under root unit 0: three units, two exact duplicates and one
	// single-ULP neighbor; the middle unit is untrained (masked out).
	childA := mkMap(3, 1, [][]float64{base, base, bump(base, 1)})
	// Child under root unit 3: all units untrained — the descent must
	// fall back to the full map there.
	childB := mkMap(2, 1, [][]float64{far, bump(far, 3)})

	g := &GHSOM{cfg: DefaultConfig(), dim: dim, mean: append([]float64(nil), base...), mqe0: 1}
	g.nodes = []*Node{
		{ID: 0, Depth: 1, Map: root, ParentUnit: -1,
			UnitCount: []int{10, 5, 3, 2}, UnitQE: []float64{0.1, 0.1, 0.1, 0.1}},
		{ID: 1, Depth: 2, Map: childA, ParentUnit: 0,
			UnitCount: []int{4, 0, 6}, UnitQE: []float64{0.1, 0, 0.1}},
		{ID: 2, Depth: 2, Map: childB, ParentUnit: 3,
			UnitCount: []int{0, 0}, UnitQE: []float64{0, 0}},
	}
	g.root = g.nodes[0]
	g.root.Children = map[int]*Node{0: g.nodes[1], 3: g.nodes[2]}
	return g
}

// TestRouteTrainedFlatNearTies pins the blocked descent bitwise to the
// tree walks on the adversarial fixture, at one-row and batch shapes
// (RouteTrained, Route, RouteTrainedFlat), with duplicates to exercise
// the dedup replay.
func TestRouteTrainedFlatNearTies(t *testing.T) {
	g := nearTieModel(t)
	c := Compile(g)
	dim := c.Dim()
	rng := rand.New(rand.NewSource(17))

	base := []float64{0.5, 0.25, 0.75, 0.125, 0.625, 0.375}
	var rows [][]float64
	// Exact unit-weight hits (zero-distance exact ties at both levels).
	rows = append(rows, base)
	w0 := append([]float64(nil), base...)
	w0[0] = math.Nextafter(w0[0], 2)
	rows = append(rows, w0)
	// Midpoints between ULP-separated units: the settle margin must admit
	// both and judge them exactly.
	mid := append([]float64(nil), base...)
	mid[0] += (math.Nextafter(base[0], 2) - base[0]) / 2
	rows = append(rows, mid)
	// The far cluster (descends into the untrained child).
	for i := 0; i < 12; i++ {
		r := make([]float64, dim)
		for d := range r {
			r[d] = 10 + rng.NormFloat64()*0.01
		}
		rows = append(rows, r)
	}
	// A cloud of tiny perturbations around base: many distinct rows at
	// the root and in child A, so GEMM groups span several rows.
	for i := 0; i < 24; i++ {
		r := make([]float64, dim)
		for d := range r {
			r[d] = base[d] + rng.NormFloat64()*1e-9
		}
		rows = append(rows, r)
	}
	// Degenerate rows: NaN and overflow-scale magnitudes, which fail the
	// expanded-form guard and take the plain canonical scan (for NaN, down
	// to its unit-0 contract).
	nanRow := make([]float64, dim)
	for d := range nanRow {
		nanRow[d] = math.NaN()
	}
	rows = append(rows, nanRow)
	huge := make([]float64, dim)
	for d := range huge {
		huge[d] = 1e160
	}
	rows = append(rows, huge)
	// Duplicates interleaved across the batch for the dedup replay.
	rows = append(rows, base, rows[3], mid)

	// Both reach the fallback at every shape: the guard is decided per
	// record before any GEMM score is read.
	for _, r := range [][]float64{nanRow, huge} {
		if vecmath.ExpandGuardOK(vecmath.SumSquares(r), c.nodeMaxNorm[0]) {
			t.Fatalf("row %v passes the expanded-form guard; it must take the plain scan", r)
		}
	}

	flat := make([]float64, 0, len(rows)*dim)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	n := len(rows)

	one := make([]Placement, 1)
	for i, r := range rows {
		wantTree := g.RouteTrained(r)
		if got := c.RouteTrained(r); !placementsBitIdentical(wantTree, got) {
			t.Fatalf("row %d: tree %+v != compiled per-record %+v", i, wantTree, got)
		}
		if err := c.RouteTrainedFlat(r, 1, one, 1); err != nil {
			t.Fatal(err)
		}
		if !placementsBitIdentical(wantTree, one[0]) {
			t.Fatalf("row %d: one-row batch %+v != tree %+v", i, one[0], wantTree)
		}
		if want, got := g.Route(r), c.Route(r); !placementsBitIdentical(want, got) {
			t.Fatalf("row %d: Route tree %+v != compiled %+v", i, want, got)
		}
	}
	for _, par := range []int{1, 2, 8, 0} {
		got := make([]Placement, n)
		if err := c.RouteTrainedFlat(flat, n, got, par); err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			if wantTree := g.RouteTrained(r); !placementsBitIdentical(wantTree, got[i]) {
				t.Fatalf("par %d row %d: batch %+v != tree %+v", par, i, got[i], wantTree)
			}
		}
	}
}
