package baseline

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"ghsom/internal/vecmath"
)

// Agglo is a trained agglomerative (bottom-up hierarchical) clustering
// model, cut at k clusters and reduced to a centroid codebook for
// assignment. Average linkage via the Lance-Williams update; O(n²)
// memory, O(n² log n) time — use on a (capped) training subsample, like
// the other codebook baselines.
type Agglo struct {
	centroids [][]float64
}

// AggloConfig controls training.
type AggloConfig struct {
	// K is the number of clusters to cut the dendrogram at.
	K int
	// MaxN caps the number of rows clustered (subsampling is the caller's
	// job; exceeding the cap is an error to keep memory bounded).
	// Defaults to 4096 when zero.
	MaxN int
}

// ErrTooLarge is returned when the input exceeds AggloConfig.MaxN.
var ErrTooLarge = errors.New("baseline: input too large for agglomerative clustering")

// mergeCandidate is a heap entry proposing to merge clusters a and b at
// the given average-linkage distance. Entries go stale when either
// cluster has since merged; staleness is detected via version counters.
type mergeCandidate struct {
	dist float64
	a, b int
	verA int
	verB int
}

type mergeHeap []mergeCandidate

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeCandidate)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TrainAgglo builds the clustering. All rows must share one dimension.
func TrainAgglo(data [][]float64, cfg AggloConfig) (*Agglo, error) {
	if len(data) == 0 {
		return nil, ErrNoData
	}
	if cfg.K < 1 {
		return nil, ErrBadK
	}
	maxN := cfg.MaxN
	if maxN <= 0 {
		maxN = 4096
	}
	if len(data) > maxN {
		return nil, fmt.Errorf("%d rows exceeds cap %d: %w", len(data), maxN, ErrTooLarge)
	}
	dim := len(data[0])
	for i, row := range data {
		if len(row) != dim {
			return nil, fmt.Errorf("baseline: row %d has dim %d, want %d", i, len(row), dim)
		}
	}
	n := len(data)
	k := cfg.K
	if k > n {
		k = n
	}

	// Active clusters: centroid sums, sizes, versions. Average linkage
	// between clusters is tracked through a lazy-deletion heap of
	// pairwise candidates; distances between cluster averages are
	// maintained with the centroid approximation of average linkage
	// (exact for single points, standard in codebook use).
	sums := make([][]float64, n)
	sizes := make([]int, n)
	version := make([]int, n)
	alive := make([]bool, n)
	for i, row := range data {
		sums[i] = vecmath.Clone(row)
		sizes[i] = 1
		alive[i] = true
	}
	centroid := func(i int) []float64 {
		c := make([]float64, dim)
		inv := 1 / float64(sizes[i])
		for d := range c {
			c[d] = sums[i][d] * inv
		}
		return c
	}

	h := &mergeHeap{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			heap.Push(h, mergeCandidate{
				dist: vecmath.SquaredDistance(data[i], data[j]),
				a:    i, b: j,
			})
		}
	}

	activeCount := n
	for activeCount > k && h.Len() > 0 {
		cand := heap.Pop(h).(mergeCandidate)
		if !alive[cand.a] || !alive[cand.b] ||
			version[cand.a] != cand.verA || version[cand.b] != cand.verB {
			continue // stale
		}
		// Merge b into a.
		alive[cand.b] = false
		for d := 0; d < dim; d++ {
			sums[cand.a][d] += sums[cand.b][d]
		}
		sizes[cand.a] += sizes[cand.b]
		version[cand.a]++
		activeCount--
		// New candidates from the merged cluster to every live cluster.
		ca := centroid(cand.a)
		for j := 0; j < n; j++ {
			if j == cand.a || !alive[j] {
				continue
			}
			heap.Push(h, mergeCandidate{
				dist: vecmath.SquaredDistance(ca, centroid(j)),
				a:    cand.a, b: j,
				verA: version[cand.a], verB: version[j],
			})
		}
	}

	model := &Agglo{}
	for i := 0; i < n; i++ {
		if alive[i] {
			model.centroids = append(model.centroids, centroid(i))
		}
	}
	return model, nil
}

// K returns the number of clusters in the cut.
func (m *Agglo) K() int { return len(m.centroids) }

// Assign returns the nearest centroid index for x and the Euclidean
// distance to it.
func (m *Agglo) Assign(x []float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c, cent := range m.centroids {
		if d := vecmath.SquaredDistance(x, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best, math.Sqrt(bestD)
}
