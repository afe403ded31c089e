// Package baseline implements the comparison detectors the GHSOM is
// evaluated against: k-means clustering (k-means++ initialization, Lloyd
// iterations) and a naive volume-threshold detector. A flat fixed-size SOM
// baseline is available directly from internal/som.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ghsom/internal/vecmath"
)

// Errors returned by the package.
var (
	// ErrNoData is returned when an operation requires at least one row.
	ErrNoData = errors.New("baseline: no data")
	// ErrBadK is returned for a non-positive cluster count.
	ErrBadK = errors.New("baseline: k must be positive")
)

// KMeans is a trained k-means model.
type KMeans struct {
	centroids [][]float64
}

// KMeansConfig controls training.
type KMeansConfig struct {
	// K is the number of clusters.
	K int
	// MaxIters caps Lloyd iterations (default 50 when zero).
	MaxIters int
	// Tol stops training when the relative inertia improvement falls
	// below it (default 1e-4 when zero).
	Tol float64
	// Rng drives k-means++ seeding. Required.
	Rng *rand.Rand
}

// TrainKMeans clusters data into cfg.K groups. When data has fewer rows
// than K, K is reduced to len(data).
func TrainKMeans(data [][]float64, cfg KMeansConfig) (*KMeans, error) {
	if len(data) == 0 {
		return nil, ErrNoData
	}
	if cfg.K < 1 {
		return nil, ErrBadK
	}
	if cfg.Rng == nil {
		return nil, errors.New("baseline: rng required")
	}
	dim := len(data[0])
	for i, row := range data {
		if len(row) != dim {
			return nil, fmt.Errorf("baseline: row %d has dim %d, want %d", i, len(row), dim)
		}
	}
	k := cfg.K
	if k > len(data) {
		k = len(data)
	}
	maxIters := cfg.MaxIters
	if maxIters <= 0 {
		maxIters = 50
	}
	tol := cfg.Tol
	if tol <= 0 {
		tol = 1e-4
	}

	centroids := kmeansPlusPlus(data, k, cfg.Rng)
	assign := make([]int, len(data))
	counts := make([]int, k)
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, dim)
	}

	prevInertia := math.Inf(1)
	for iter := 0; iter < maxIters; iter++ {
		// Assignment step.
		var inertia float64
		for i, x := range data {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := vecmath.SquaredDistance(x, cent); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			inertia += bestD
		}
		// Update step.
		for c := range sums {
			counts[c] = 0
			for d := range sums[c] {
				sums[c][d] = 0
			}
		}
		for i, x := range data {
			c := assign[i]
			counts[c]++
			vecmath.AXPYInPlace(sums[c], 1, x)
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed empty clusters at the point farthest from its
				// centroid — the standard fix for dead centroids.
				centroids[c] = vecmath.Clone(data[cfg.Rng.Intn(len(data))])
				continue
			}
			inv := 1 / float64(counts[c])
			for d := range centroids[c] {
				centroids[c][d] = sums[c][d] * inv
			}
		}
		if prevInertia-inertia < tol*prevInertia {
			break
		}
		prevInertia = inertia
	}
	return &KMeans{centroids: centroids}, nil
}

// kmeansPlusPlus seeds k centroids with the k-means++ distribution:
// each next centroid is drawn proportionally to squared distance from the
// nearest already-chosen one.
func kmeansPlusPlus(data [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, vecmath.Clone(data[rng.Intn(len(data))]))
	dist2 := make([]float64, len(data))
	for i, x := range data {
		dist2[i] = vecmath.SquaredDistance(x, centroids[0])
	}
	for len(centroids) < k {
		total := vecmath.Sum(dist2)
		var next int
		if total <= 0 {
			next = rng.Intn(len(data))
		} else {
			r := rng.Float64() * total
			for i, d := range dist2 {
				r -= d
				if r <= 0 {
					next = i
					break
				}
			}
		}
		c := vecmath.Clone(data[next])
		centroids = append(centroids, c)
		for i, x := range data {
			if d := vecmath.SquaredDistance(x, c); d < dist2[i] {
				dist2[i] = d
			}
		}
	}
	return centroids
}

// K returns the number of centroids.
func (m *KMeans) K() int { return len(m.centroids) }

// Assign returns the nearest centroid index for x and the Euclidean
// distance to it.
func (m *KMeans) Assign(x []float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c, cent := range m.centroids {
		if d := vecmath.SquaredDistance(x, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best, math.Sqrt(bestD)
}
