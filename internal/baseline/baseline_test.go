package baseline

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ghsom/internal/vecmath"
)

// inertia is the k-means objective of m on data: the total squared
// distance of every point to its nearest centroid.
func inertia(m *KMeans, data [][]float64) float64 {
	var sum float64
	for _, x := range data {
		_, d := m.Assign(x)
		sum += d * d
	}
	return sum
}

func clusters(rng *rand.Rand, nPer int, centers ...[]float64) [][]float64 {
	var data [][]float64
	for _, c := range centers {
		for i := 0; i < nPer; i++ {
			x := make([]float64, len(c))
			for d := range x {
				x[d] = c[d] + rng.NormFloat64()*0.3
			}
			data = append(data, x)
		}
	}
	return data
}

func TestKMeansRecoversCenters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	data := clusters(rng, 100, centers...)
	m, err := TrainKMeans(data, KMeansConfig{K: 3, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 3 {
		t.Fatalf("K = %d", m.K())
	}
	// Every true center must be within 1 of some centroid.
	for _, c := range centers {
		best := math.Inf(1)
		for i := 0; i < m.K(); i++ {
			if d := vecmath.Distance(c, m.centroids[i]); d < best {
				best = d
			}
		}
		if best > 1 {
			t.Errorf("no centroid near true center %v (nearest %v)", c, best)
		}
	}
	// Assignments of the centers differ pairwise.
	a1, _ := m.Assign(centers[0])
	a2, _ := m.Assign(centers[1])
	a3, _ := m.Assign(centers[2])
	if a1 == a2 || a2 == a3 || a1 == a3 {
		t.Error("cluster centers share assignments")
	}
}

func TestKMeansAssignDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := [][]float64{{0}, {0.1}, {10}, {10.1}}
	m, err := TrainKMeans(data, KMeansConfig{K: 2, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	_, d := m.Assign([]float64{0.05})
	if d > 0.2 {
		t.Errorf("assignment distance %v too large", d)
	}
}

func TestKMeansErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := TrainKMeans(nil, KMeansConfig{K: 2, Rng: rng}); !errors.Is(err, ErrNoData) {
		t.Errorf("no-data err = %v", err)
	}
	if _, err := TrainKMeans([][]float64{{1}}, KMeansConfig{K: 0, Rng: rng}); !errors.Is(err, ErrBadK) {
		t.Errorf("bad-k err = %v", err)
	}
	if _, err := TrainKMeans([][]float64{{1}}, KMeansConfig{K: 1}); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := TrainKMeans([][]float64{{1}, {1, 2}}, KMeansConfig{K: 1, Rng: rng}); err == nil {
		t.Error("ragged data accepted")
	}
}

func TestKMeansKLargerThanData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := TrainKMeans([][]float64{{1}, {2}}, KMeansConfig{K: 10, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 {
		t.Errorf("K = %d, want clamped to 2", m.K())
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	m, err := TrainKMeans(data, KMeansConfig{K: 2, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if got := inertia(m, data); got > 1e-9 {
		t.Errorf("inertia on identical points = %v", got)
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	mk := func() *KMeans {
		rng := rand.New(rand.NewSource(42))
		data := clusters(rng, 50, []float64{0, 0}, []float64{5, 5})
		m, err := TrainKMeans(data, KMeansConfig{K: 2, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := mk(), mk()
	for c := 0; c < m1.K(); c++ {
		if !slices.Equal(m1.centroids[c], m2.centroids[c]) {
			t.Fatal("same-seed training differs")
		}
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := clusters(rng, 80, []float64{0, 0}, []float64{8, 0}, []float64{0, 8}, []float64{8, 8})
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 4, 8} {
		m, err := TrainKMeans(data, KMeansConfig{K: k, Rng: rand.New(rand.NewSource(7))})
		if err != nil {
			t.Fatal(err)
		}
		got := inertia(m, data)
		if got > prev*1.05 { // small tolerance: k-means is not globally optimal
			t.Errorf("inertia rose from %v to %v at k=%d", prev, got, k)
		}
		prev = got
	}
}

func TestVolumeThreshold(t *testing.T) {
	normal := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}}
	vt, err := TrainVolumeThreshold(normal, 0, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if vt.threshold < 8 || vt.threshold > 10 {
		t.Errorf("threshold = %v", vt.threshold)
	}
	if vt.IsAttack([]float64{5}) {
		t.Error("median flagged as attack")
	}
	if !vt.IsAttack([]float64{100}) {
		t.Error("outlier not flagged")
	}
	if vt.Score([]float64{42}) != 42 {
		t.Error("Score should return the raw feature")
	}
}

func TestVolumeThresholdErrors(t *testing.T) {
	if _, err := TrainVolumeThreshold(nil, 0, 0.9); !errors.Is(err, ErrNoData) {
		t.Errorf("no-data err = %v", err)
	}
	// Feature index out of range for all rows.
	if _, err := TrainVolumeThreshold([][]float64{{1}}, 5, 0.9); !errors.Is(err, ErrNoData) {
		t.Errorf("bad-feature err = %v", err)
	}
}

func TestVolumeThresholdQuantileClamping(t *testing.T) {
	normal := [][]float64{{1}, {2}, {3}}
	lo, err := TrainVolumeThreshold(normal, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if lo.threshold != 1 {
		t.Errorf("q=-1 threshold = %v, want min", lo.threshold)
	}
	hi, err := TrainVolumeThreshold(normal, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hi.threshold != 3 {
		t.Errorf("q=2 threshold = %v, want max", hi.threshold)
	}
}

func TestVolumeThresholdScoreOutOfRange(t *testing.T) {
	vt, err := TrainVolumeThreshold([][]float64{{1, 2}}, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Score([]float64{9}) != 0 {
		t.Error("out-of-range feature should score 0")
	}
}
