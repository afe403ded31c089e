package som

import (
	"math"
	"math/rand"
	"testing"

	"ghsom/internal/vecmath"
)

// TestVersionBumpsOnEveryMutation pins the weight-arena version
// contract: every mutating API increments the version counter, which is
// what the blocked BMU engine's norm cache keys on.
func TestVersionBumpsOnEveryMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := New(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]float64{{1, 2, 3}, {4, 5, 6}, {0.5, 0.25, 0.125}}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"SetWeight", func() error { return m.SetWeight(1, []float64{9, 8, 7}) }},
		{"InitSample", func() error { return m.InitSample(data, rng) }},
		{"InitAroundMean", func() error { return m.InitAroundMean([]float64{1, 1, 1}, 0.1, rng) }},
		{"InsertRowBetween", func() error { return m.InsertRowBetween(0) }},
		{"InsertColBetween", func() error { return m.InsertColBetween(0) }},
		{"GrowBetween", func() error { return m.GrowBetween(0, 1) }},
		{"TrainBatchSet", func() error {
			_, err := m.TrainBatchSet(NewTrainSet(rowsView(t, data)), TrainConfig{
				Epochs: 2, Alpha0: 0.5, AlphaEnd: 0.01, RadiusEnd: 0.5,
				Kernel: KernelGaussian, Decay: DecayLinear,
			})
			return err
		}},
		{"TrainOnlineView", func() error {
			_, err := m.TrainOnlineView(rowsView(t, data), TrainConfig{
				Epochs: 1, Alpha0: 0.5, AlphaEnd: 0.01, RadiusEnd: 0.5,
				Kernel: KernelGaussian, Decay: DecayLinear,
			})
			return err
		}},
	}
	for _, s := range steps {
		before := m.version
		if err := s.fn(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if m.version <= before {
			t.Errorf("%s did not bump the version (%d -> %d)", s.name, before, m.version)
		}
	}
}

// TestNormCacheNeverStaleAcrossGrowth is the regression test of the
// norm-cache staleness hazard: growth reallocates the weight arena (the
// documented view-invalidation event of PR 1), and the version counter
// must make the cached norms impossible to observe stale — the batched
// BMU results after growth must match the per-row scalar scan exactly.
func TestNormCacheNeverStaleAcrossGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim = 7
	m, err := New(2, 2, dim)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]float64, 40)
	flatData := make([]float64, len(data)*dim)
	for i := range data {
		row := flatData[i*dim : (i+1)*dim]
		for d := range row {
			row[d] = rng.NormFloat64()
		}
		data[i] = row
	}
	if err := m.InitSample(data, rng); err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		bmus := make([]int, len(data))
		d2s := make([]float64, len(data))
		if err := m.AssignFlat(flatData, len(data), bmus, d2s, 1); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for i, row := range data {
			wantB, wantD := vecmath.ArgMinDistance(row, m.Weights())
			if wantB < 0 {
				wantB = 0
			}
			if bmus[i] != wantB || math.Float64bits(d2s[i]) != math.Float64bits(wantD) {
				t.Fatalf("%s: row %d batched (%d, %x) != scalar (%d, %x) — stale norm cache",
					stage, i, bmus[i], math.Float64bits(d2s[i]), wantB, math.Float64bits(wantD))
			}
		}
	}

	check("before growth")
	// Grow (reallocates the arena), then mutate a weight in place via
	// SetWeight, then grow again: each step must invalidate.
	if err := m.InsertRowBetween(0); err != nil {
		t.Fatal(err)
	}
	check("after row growth")
	w := append([]float64(nil), m.Weight(3)...)
	for d := range w {
		w[d] += 3.5
	}
	if err := m.SetWeight(3, w); err != nil {
		t.Fatal(err)
	}
	check("after SetWeight")
	if err := m.InsertColBetween(0); err != nil {
		t.Fatal(err)
	}
	check("after column growth")
	// Training rewrites every weight each epoch; the engine's per-epoch
	// BMU passes must track it.
	if _, err := m.TrainBatchSet(NewTrainSet(rowsView(t, data)), TrainConfig{
		Epochs: 3, Alpha0: 0.5, AlphaEnd: 0.01, RadiusEnd: 0.5,
		Kernel: KernelGaussian, Decay: DecayExponential,
	}); err != nil {
		t.Fatal(err)
	}
	check("after training")
}

// TestAssignViewMatchesScalarBMU pins the batched assignment paths to
// the scalar per-row kernel across parallelism settings.
func TestAssignViewMatchesScalarBMU(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const dim, n = 11, 100
	m, err := New(3, 4, dim)
	if err != nil {
		t.Fatal(err)
	}
	flatData := make([]float64, n*dim)
	for i := range flatData {
		flatData[i] = rng.NormFloat64()
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flatData[i*dim : (i+1)*dim]
	}
	if err := m.InitSample(rows, rng); err != nil {
		t.Fatal(err)
	}
	mat, err := vecmath.MatrixOver(flatData, n, dim)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 8, 0} {
		m.SetParallelism(p)
		got := m.AssignView(mat.View())
		for i, row := range rows {
			want, _ := m.BMU(row)
			if got[i] != want {
				t.Fatalf("P=%d: row %d assigned %d, want %d", p, i, got[i], want)
			}
		}
	}
}
