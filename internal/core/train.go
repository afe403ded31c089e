package core

import (
	"fmt"
	"math"

	"ghsom/internal/som"
	"ghsom/internal/vecmath"
)

// GrowthEvent records the state of one map after a growth-loop iteration.
// The series of events for a node reproduces the convergence and growth
// figures.
type GrowthEvent struct {
	// NodeID identifies the map.
	NodeID int
	// Depth is the map's layer.
	Depth int
	// Iteration is the growth-loop iteration within the map (0 = initial
	// training of the 2x2 map).
	Iteration int
	// Rows and Cols are the map shape after this iteration.
	Rows, Cols int
	// MeanUnitMQE is the growth criterion value after this iteration.
	MeanUnitMQE float64
	// MQE is the plain mean quantization error over the map's data.
	MQE float64
}

// GrowthTrace collects GrowthEvents across the whole training run.
type GrowthTrace struct {
	// Events holds all recorded events in training order.
	Events []GrowthEvent
}

// ForNode returns the events belonging to one node, in iteration order.
func (t *GrowthTrace) ForNode(id int) []GrowthEvent {
	var out []GrowthEvent
	for _, e := range t.Events {
		if e.NodeID == id {
			out = append(out, e)
		}
	}
	return out
}

// nodeJob describes one map to train: the root, or the expansion of one
// parent unit. The job's data is a zero-copy index view into the one
// shared training matrix; the job gathers those rows into a contiguous
// training set only while it trains. Sibling and cousin subtrees see
// disjoint rows and share no mutable state, which is what makes jobs
// safe to train concurrently. Training fills in the result fields.
type nodeJob struct {
	parent     *nodeJob // nil for the root
	parentUnit int      // -1 for the root
	view       vecmath.View
	mean       []float64
	parentQE   float64
	depth      int
	corners    [][]float64
	seed       int64 // RNG seed for this node's private stream

	node     *Node
	events   []GrowthEvent
	err      error      // training failure, reported under the parent's ID
	children []*nodeJob // expansion jobs in unit order
}

// Train builds a GHSOM from data. Every row must have the same dimension.
// It is a thin adapter over TrainMatrix: the rows are copied once into a
// contiguous matrix and the hierarchy trains on zero-copy views of it.
// Training is deterministic for a fixed Config (including Seed) and data:
// every node trains on a private RNG stream derived from Seed and the
// node's position in the tree, node IDs are assigned in breadth-first
// order once the whole tree has trained, and all floating-point
// reductions run in data order — so the model is bit-for-bit identical
// at every Parallelism setting.
func Train(data [][]float64, cfg Config) (*GHSOM, error) {
	if len(data) == 0 {
		return nil, ErrNoData
	}
	mat, err := vecmath.MatrixFromRows(data)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return TrainMatrix(mat, nil, cfg)
}

// TrainMatrix builds a GHSOM from the rows of a flat row-major matrix —
// the zero-copy entry point of the training dataplane. When idx is
// non-nil only the rows it names are trained on, in idx order (the
// label-cap subsample passes its index selection here instead of
// gathering rows). The matrix is read-only during training and must not
// be mutated concurrently; the determinism guarantees of Train apply.
func TrainMatrix(mat vecmath.Matrix, idx []int, cfg Config) (*GHSOM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := mat.CheckIndex(idx); err != nil {
		return nil, fmt.Errorf("core: training subset: %w", err)
	}
	view := mat.View()
	if idx != nil {
		view = mat.Subset(idx)
	}
	n := view.Rows()
	if n == 0 {
		return nil, ErrNoData
	}
	dim := view.Dim()
	for i := 0; i < n; i++ {
		if !vecmath.IsFinite(view.Row(i)) {
			return nil, fmt.Errorf("core: data row %d contains NaN or Inf", view.Index(i))
		}
	}

	mean, err := view.Mean()
	if err != nil {
		return nil, fmt.Errorf("core: layer-0 mean: %w", err)
	}
	var qeSum float64
	for i := 0; i < n; i++ {
		qeSum += vecmath.Distance(view.Row(i), mean)
	}
	mqe0 := qeSum / float64(n)

	g := &GHSOM{cfg: cfg, dim: dim, mean: mean, mqe0: mqe0}
	if cfg.CollectTrace {
		g.trace = &GrowthTrace{}
	}

	// Train the whole tree as a dataflow (see trainQueue), then register
	// it in the order the level-by-level expansion defines: breadth
	// first, each node's children in unit order.
	root := &nodeJob{
		parentUnit: -1,
		view:       view,
		mean:       mean,
		parentQE:   mqe0, // layer 1 grows against the layer-0 unit's error
		depth:      1,
		seed:       deriveSeed(cfg.Seed, -1),
	}
	q := &trainQueue{g: g, mat: mat}
	q.run(root)
	order := []*nodeJob{root}
	for i := 0; i < len(order); i++ {
		jb := order[i]
		if jb.err != nil {
			if jb.parent != nil {
				return nil, fmt.Errorf("core: expand node %d unit %d: %w", jb.parent.node.ID, jb.parentUnit, jb.err)
			}
			return nil, jb.err
		}
		n := jb.node
		n.ID = len(g.nodes)
		g.nodes = append(g.nodes, n)
		// Training is over for this map; from here on (routing, quality
		// measures) its batch operations get the full worker budget.
		n.Map.SetParallelism(cfg.Parallelism)
		if jb.parent == nil {
			g.root = n
		} else {
			p := jb.parent.node
			if p.Children == nil {
				p.Children = make(map[int]*Node)
			}
			p.Children[jb.parentUnit] = n
		}
		if g.trace != nil {
			for k := range jb.events {
				jb.events[k].NodeID = n.ID
			}
			g.trace.Events = append(g.trace.Events, jb.events...)
		}
		order = append(order, jb.children...)
	}
	return g, nil
}

// trainJob trains one job's map on its gathered rows and derives the
// child jobs from the final BMU assignment. A failed job expands nothing;
// its error waits for registration, which reports the first failure in
// registration order whichever job failed first in time.
func (g *GHSOM) trainJob(jb *nodeJob, q *trainQueue) {
	set := som.NewTrainSet(jb.view)
	node, events, bmus, err := g.trainNodeMap(jb, set, q)
	if err != nil {
		jb.err = err
		return
	}
	jb.node, jb.events = node, events
	jb.children = g.expandJobs(jb, set, bmus, q.mat)
}

// expandJobs derives the child-map training jobs of a freshly trained
// node: every unit holding enough data and still exceeding the tau2
// granularity criterion is queued for vertical expansion. bmus is the
// node's final BMU assignment of the rows of set (the job's training
// set); one pass over it buckets the rows of every expanded unit, and
// one pass over the set's nonzeros sums their means.
func (g *GHSOM) expandJobs(jb *nodeJob, set som.TrainSet, bmus []int, mat vecmath.Matrix) []*nodeJob {
	cfg := g.cfg
	n := jb.node
	if n.Depth >= cfg.MaxDepth {
		return nil
	}
	// A (near-)zero layer-0 error means the data is degenerate (all
	// records identical); any vertical expansion would be noise-chasing.
	if g.mqe0 <= 1e-12 {
		return nil
	}
	// The child trains on an index view of the shared matrix: only the
	// row indices are materialized, never the rows themselves. A unit
	// expands only with at least MinMapData >= 1 rows, so no child is
	// empty.
	sub := make([][]int, n.Map.Units())
	take := make([]bool, len(sub))
	expand := false
	for u := range sub {
		if n.UnitCount[u] >= cfg.MinMapData && n.UnitQE[u] > cfg.Tau2*g.mqe0 {
			sub[u] = make([]int, 0, n.UnitCount[u])
			take[u] = true
			expand = true
		}
	}
	if !expand {
		return nil
	}
	for i, u := range bmus {
		if sub[u] != nil {
			sub[u] = append(sub[u], jb.view.Index(i))
		}
	}
	means := set.ClassMeans(bmus, take)
	var out []*nodeJob
	for u, rows := range sub {
		if rows == nil {
			continue
		}
		var corners [][]float64
		if cfg.OrientChildren {
			corners = orientationCorners(n.Map, u)
		}
		out = append(out, &nodeJob{
			parent:     jb,
			parentUnit: u,
			view:       mat.Subset(rows),
			mean:       means[u],
			parentQE:   n.UnitQE[u],
			depth:      n.Depth + 1,
			corners:    corners,
			seed:       deriveSeed(jb.seed, u),
		})
	}
	return out
}

// trainNodeMap creates, grows, and fine-tunes a single map on the job's
// gathered rows, stopping when its mean unit error falls below Tau1 *
// jb.parentQE. It is a pure function of the job (plus the read-only
// model config): it touches no shared GHSOM state and draws randomness
// only from the job's private seed, so jobs may run concurrently. Its
// batch passes run on the workers q lends them. Every weight state is
// scored by exactly one BMU pass, which feeds the growth criterion, the
// trace, the error-unit choice, and (for the final state) the unit
// statistics and the returned BMU assignment the children are split by.
// The returned node has no ID yet (the caller assigns IDs in
// registration order), and growth events carry a placeholder NodeID for
// the caller to fill in.
func (g *GHSOM) trainNodeMap(jb *nodeJob, set som.TrainSet, q *trainQueue) (*Node, []GrowthEvent, []int, error) {
	cfg := g.cfg
	rng := newRNG(jb.seed)
	data := set.View()
	m, err := som.New(2, 2, g.dim)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := m.InitAroundMean(jb.mean, cfg.InitSpread, rng); err != nil {
		return nil, nil, nil, err
	}
	if len(jb.corners) == 4 {
		// Coherent orientation: bias each corner of the new 2x2 map in
		// the direction of the corresponding parent-grid neighbor, so the
		// child map unfolds the parent unit's region with the same
		// spatial arrangement as the parent layer. The offsets are
		// applied around the child's own data mean to stay inside the
		// region being expanded.
		for i := 0; i < 4; i++ {
			w := make([]float64, g.dim)
			copy(w, jb.mean)
			vecmath.AXPYInPlace(w, orientationBlend, jb.corners[i])
			if err := m.SetWeight(i, w); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	node := &Node{ID: -1, Depth: jb.depth, Map: m, ParentUnit: jb.parentUnit}
	var events []GrowthEvent
	bmus := make([]int, data.Rows())

	train := func(epochs int) (err error) {
		tc := som.TrainConfig{
			Epochs:      epochs,
			Alpha0:      cfg.Alpha0,
			AlphaEnd:    cfg.AlphaEnd,
			Radius0:     0, // derive from current map size
			RadiusEnd:   cfg.RadiusEnd,
			Kernel:      cfg.Kernel,
			Decay:       cfg.Decay,
			Shuffle:     !cfg.Batch,
			Rng:         rng,
			Parallelism: 1,
			// The growth loop measures MeanUnitMQE after every call; the
			// per-epoch MQE series would be recomputed work it never reads.
			SkipEpochMQE: true,
		}
		if !cfg.Batch {
			// Online steps are serial; with SkipEpochMQE the call runs
			// no pass to lend workers to.
			_, err = m.TrainOnlineView(data, tc)
			return err
		}
		q.pass(data.Rows(), m.Units(), func(p int) {
			tc.Parallelism = p
			_, err = m.TrainBatchSet(set, tc)
		})
		return err
	}

	// measure scores the current weights in one BMU pass: per-unit error
	// sums and counts, with every row's BMU left in bmus.
	measure := func() (sumQE []float64, counts []int) {
		q.pass(data.Rows(), m.Units(), func(p int) {
			m.SetParallelism(p)
			sumQE, counts = m.UnitErrorsSet(set, bmus)
		})
		return sumQE, counts
	}

	record := func(iter int, sumQE []float64, counts []int) float64 {
		// One BMU pass serves both quality measures: the growth criterion
		// (mean of per-unit mean errors) and, under tracing, the plain MQE
		// (total error over all rows).
		var perUnit, total float64
		var won int
		for i, c := range counts {
			total += sumQE[i]
			if c > 0 {
				perUnit += sumQE[i] / float64(c)
				won++
			}
		}
		muMQE := math.NaN()
		if won > 0 {
			muMQE = perUnit / float64(won)
		}
		if g.trace != nil {
			events = append(events, GrowthEvent{
				NodeID:      -1, // assigned at registration
				Depth:       jb.depth,
				Iteration:   iter,
				Rows:        m.Rows(),
				Cols:        m.Cols(),
				MeanUnitMQE: muMQE,
				MQE:         total / float64(data.Rows()),
			})
		}
		return muMQE
	}

	if err := train(cfg.EpochsPerGrowth); err != nil {
		return nil, nil, nil, err
	}
	sumQE, counts := measure()
	muMQE := record(0, sumQE, counts)

	// The growth target: stop once the map represents its data tau1 times
	// better than the parent unit did. A (near-)zero parent error means
	// the data is already fully represented; skip growth entirely.
	target := cfg.Tau1 * jb.parentQE
	for iter := 1; iter <= cfg.MaxGrowIters; iter++ {
		if jb.parentQE <= 1e-12 || math.IsNaN(muMQE) || muMQE <= target {
			break
		}
		if m.Units() >= cfg.MaxMapUnits {
			break
		}
		// A map larger than its data set cannot quantize it any better;
		// growth past that point only manufactures dead units.
		if m.Units() >= data.Rows() {
			break
		}
		e, d, ok := errorUnitAndNeighbor(m, som.MeanErrors(sumQE, counts), counts)
		if !ok {
			break
		}
		if err := m.GrowBetween(e, d); err != nil {
			return nil, nil, nil, fmt.Errorf("core: grow map: %w", err)
		}
		if err := train(cfg.EpochsPerGrowth); err != nil {
			return nil, nil, nil, err
		}
		sumQE, counts = measure()
		muMQE = record(iter, sumQE, counts)
	}

	if cfg.FineTuneEpochs > 0 {
		if err := train(cfg.FineTuneEpochs); err != nil {
			return nil, nil, nil, err
		}
		sumQE, counts = measure()
	}
	node.UnitQE, node.UnitCount = som.MeanErrors(sumQE, counts), counts
	return node, events, bmus, nil
}

// deriveSeed maps a parent stream seed and a unit index to the child
// node's private RNG seed via a splitmix64-style finalizer. The derivation
// depends only on the path from the root (root uses unit -1), never on
// execution order, which keeps training deterministic under parallelism.
func deriveSeed(parent int64, unit int) int64 {
	z := uint64(parent) + uint64(unit+1)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// orientationBlend scales the parent-neighborhood direction offsets used
// to seed child-map corners. Small enough to keep corners inside the
// parent unit's region, large enough to fix the unfolding orientation.
const orientationBlend = 0.1

// orientationCorners computes, for parent unit u, the four direction
// vectors (toward the up-left, up-right, down-left, down-right parent
// neighborhoods, relative to the unit's own weight) used to orient a new
// child map. Out-of-grid neighbors contribute nothing in that direction.
// The returned slice is ordered to match the child 2x2 unit layout:
// (0,0), (0,1), (1,0), (1,1).
func orientationCorners(m *som.Map, u int) [][]float64 {
	r, c := m.Coords(u)
	center := m.Weight(u)
	dim := m.Dim()
	dirTo := func(rr, cc int) []float64 {
		out := make([]float64, dim)
		if !m.InBounds(rr, cc) {
			return out
		}
		w := m.WeightAt(rr, cc)
		for d := 0; d < dim; d++ {
			out[d] = w[d] - center[d]
		}
		return out
	}
	up := dirTo(r-1, c)
	down := dirTo(r+1, c)
	left := dirTo(r, c-1)
	right := dirTo(r, c+1)
	mix := func(a, b []float64) []float64 {
		out := make([]float64, dim)
		for d := 0; d < dim; d++ {
			out[d] = (a[d] + b[d]) / 2
		}
		return out
	}
	return [][]float64{
		mix(up, left),    // child (0,0)
		mix(up, right),   // child (0,1)
		mix(down, left),  // child (1,0)
		mix(down, right), // child (1,1)
	}
}

// errorUnitAndNeighbor finds the unit with the largest mean quantization
// error (among units that won data) and its most dissimilar direct grid
// neighbor in weight space. It returns ok=false when no unit won any data.
func errorUnitAndNeighbor(m *som.Map, meanQE []float64, counts []int) (e, d int, ok bool) {
	e = -1
	best := math.Inf(-1)
	for i, qe := range meanQE {
		if counts[i] == 0 {
			continue
		}
		if qe > best {
			best = qe
			e = i
		}
	}
	if e < 0 {
		return 0, 0, false
	}
	var nbuf [4]int
	neighbors := m.Neighbors(e, nbuf[:0])
	d = -1
	worst := math.Inf(-1)
	for _, j := range neighbors {
		dist := vecmath.SquaredDistance(m.Weight(e), m.Weight(j))
		if dist > worst {
			worst = dist
			d = j
		}
	}
	if d < 0 {
		return 0, 0, false
	}
	return e, d, true
}
