package baseline

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestAggloRecoversClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	data := clusters(rng, 40, centers...)
	m, err := TrainAgglo(data, AggloConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 3 {
		t.Fatalf("K = %d", m.K())
	}
	// Each true center is near some centroid, and assignments separate.
	seen := make(map[int]bool)
	for _, c := range centers {
		idx, d := m.Assign(c)
		if d > 1 {
			t.Errorf("center %v is %v from nearest centroid", c, d)
		}
		seen[idx] = true
	}
	if len(seen) != 3 {
		t.Errorf("centers collapse onto %d clusters", len(seen))
	}
}

func TestAggloK1(t *testing.T) {
	data := [][]float64{{0}, {2}, {4}}
	m, err := TrainAgglo(data, AggloConfig{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 1 {
		t.Fatalf("K = %d", m.K())
	}
	// Single cluster centroid is the mean.
	if c := m.centroids[0]; len(c) != 1 || !(math.Abs(c[0]-2) <= 1e-12) {
		t.Errorf("centroid = %v, want [2]", c)
	}
}

func TestAggloKLargerThanData(t *testing.T) {
	data := [][]float64{{0}, {5}}
	m, err := TrainAgglo(data, AggloConfig{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 {
		t.Errorf("K = %d, want 2", m.K())
	}
}

func TestAggloErrors(t *testing.T) {
	if _, err := TrainAgglo(nil, AggloConfig{K: 2}); !errors.Is(err, ErrNoData) {
		t.Errorf("no-data err = %v", err)
	}
	if _, err := TrainAgglo([][]float64{{1}}, AggloConfig{K: 0}); !errors.Is(err, ErrBadK) {
		t.Errorf("bad-k err = %v", err)
	}
	if _, err := TrainAgglo([][]float64{{1}, {1, 2}}, AggloConfig{K: 1}); err == nil {
		t.Error("ragged data accepted")
	}
	big := make([][]float64, 50)
	for i := range big {
		big[i] = []float64{float64(i)}
	}
	if _, err := TrainAgglo(big, AggloConfig{K: 2, MaxN: 10}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over-cap err = %v", err)
	}
}

func TestAggloMergesNearestFirst(t *testing.T) {
	// Points at 0, 1, 100: cutting at 2 must group {0,1} together.
	data := [][]float64{{0}, {1}, {100}}
	m, err := TrainAgglo(data, AggloConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	a0, _ := m.Assign([]float64{0})
	a1, _ := m.Assign([]float64{1})
	a2, _ := m.Assign([]float64{100})
	if a0 != a1 {
		t.Error("adjacent points split")
	}
	if a2 == a0 {
		t.Error("distant point merged")
	}
}

func TestAggloDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := clusters(rng, 30, []float64{0, 0}, []float64{5, 5})
	m1, err := TrainAgglo(data, AggloConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainAgglo(data, AggloConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m1.K() != m2.K() {
		t.Fatal("cluster counts differ")
	}
	for c := 0; c < m1.K(); c++ {
		if !slices.Equal(m1.centroids[c], m2.centroids[c]) {
			t.Fatal("centroids differ across identical runs")
		}
	}
}
