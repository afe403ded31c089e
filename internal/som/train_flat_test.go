package som

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ghsom/internal/vecmath"
)

// gridDistance2 returns the squared Euclidean distance between units i and
// j measured on the grid lattice (not in weight space).
func gridDistance2(m *Map, i, j int) float64 {
	ri, ci := m.Coords(i)
	rj, cj := m.Coords(j)
	dr := float64(ri - rj)
	dc := float64(ci - cj)
	return dr*dr + dc*dc
}

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

// unitErrorsRef is the scalar reference of UnitErrorsSet: per unit, the
// summed quantization error of the view rows whose BMU it is and their
// count, folded in row order.
func unitErrorsRef(m *Map, v vecmath.View) (sumQE []float64, counts []int) {
	sumQE = make([]float64, m.Units())
	counts = make([]int, m.Units())
	for i := 0; i < v.Rows(); i++ {
		bmu, d2 := m.BMU(v.Row(i))
		sumQE[bmu] += math.Sqrt(d2)
		counts[bmu]++
	}
	return sumQE, counts
}

// referenceTrainBatch is the retired slice-path batch trainer: per-record
// accumulation that re-evaluates the neighborhood kernel for every
// (record, unit) pair, with a separate full MQE scan per epoch. It shares
// the current decay schedule (scheduleFrac) so the only difference from
// TrainBatchSet is the accumulation algebra — the equivalence oracle for
// the BMU-class kernel.
func referenceTrainBatch(m *Map, data [][]float64, cfg TrainConfig) TrainStats {
	radius0 := cfg.effectiveRadius0(m)
	units := m.Units()
	numer := make([][]float64, units)
	for i := range numer {
		numer[i] = make([]float64, m.dim)
	}
	denom := make([]float64, units)
	stats := TrainStats{EpochMQE: make([]float64, 0, cfg.Epochs)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		radius := cfg.Decay.Interp(radius0, cfg.RadiusEnd, cfg.scheduleFrac(epoch))
		for i := range numer {
			for d := range numer[i] {
				numer[i][d] = 0
			}
			denom[i] = 0
		}
		for _, x := range data {
			bmu, _ := m.BMU(x)
			for i := 0; i < units; i++ {
				h := cfg.Kernel.Value(gridDistance2(m, bmu, i), radius)
				if h <= 0 {
					continue
				}
				denom[i] += h
				vecmath.AXPYInPlace(numer[i], h, x)
			}
		}
		for i := 0; i < units; i++ {
			if denom[i] <= 0 {
				continue
			}
			inv := 1 / denom[i]
			w := m.Weight(i)
			for d := range w {
				w[d] = numer[i][d] * inv
			}
		}
		var sum float64
		for _, x := range data {
			_, d2 := m.BMU(x)
			sum += math.Sqrt(d2)
		}
		stats.EpochMQE = append(stats.EpochMQE, sum/float64(len(data)))
	}
	return stats
}

// flatTrainData builds a clustered data set of the given shape.
func flatTrainData(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, dim)
		base := float64(i%3) * 4
		for d := range data[i] {
			data[i][d] = base + rng.NormFloat64()
		}
	}
	return data
}

// initDeterministic sets unit i's weight from data row i (wrapping), so
// two maps can start from identical states without an RNG.
func initDeterministic(m *Map, data [][]float64) {
	for i := 0; i < m.Units(); i++ {
		_ = m.SetWeight(i, data[i%len(data)])
	}
}

func batchCfg(epochs int, kernel Kernel) TrainConfig {
	return TrainConfig{
		Epochs: epochs, Alpha0: 0.5, AlphaEnd: 0.01,
		Radius0: 2, RadiusEnd: 0.5,
		Kernel: kernel, Decay: DecayLinear,
	}
}

// TestTrainBatchMatchesRetiredAccumulation pins the BMU-class
// accumulation to the retired per-record accumulation: same init, same
// schedule, weights and per-epoch MQE equal up to floating-point
// reassociation, for every kernel.
func TestTrainBatchMatchesRetiredAccumulation(t *testing.T) {
	data := flatTrainData(300, 6, 21)
	for _, kernel := range []Kernel{KernelGaussian, KernelBubble, KernelMexicanHat} {
		t.Run(kernel.String(), func(t *testing.T) {
			cfg := batchCfg(7, kernel)
			flat, _ := New(3, 4, 6)
			initDeterministic(flat, data)
			stats, err := flat.TrainBatchSet(NewTrainSet(rowsView(t, data)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := New(3, 4, 6)
			initDeterministic(ref, data)
			refStats := referenceTrainBatch(ref, data, cfg)
			for i := 0; i < flat.Units(); i++ {
				if !approxEqual(flat.Weight(i), ref.Weight(i), 1e-8) {
					t.Fatalf("unit %d diverged from retired accumulation:\nflat %v\nref  %v",
						i, flat.Weight(i), ref.Weight(i))
				}
			}
			if len(stats.EpochMQE) != len(refStats.EpochMQE) {
				t.Fatalf("EpochMQE length %d, reference %d", len(stats.EpochMQE), len(refStats.EpochMQE))
			}
			for e := range stats.EpochMQE {
				if math.Abs(stats.EpochMQE[e]-refStats.EpochMQE[e]) > 1e-8 {
					t.Fatalf("epoch %d MQE %v, reference %v", e, stats.EpochMQE[e], refStats.EpochMQE[e])
				}
			}
		})
	}
}

// TestTrainBatchBitIdenticalAcrossParallelism is the determinism gate of
// the flat batch kernel: every Parallelism setting must produce exactly
// the same bits, weights and stats alike.
func TestTrainBatchBitIdenticalAcrossParallelism(t *testing.T) {
	data := flatTrainData(500, 8, 33)
	run := func(p int) (*Map, TrainStats) {
		m, _ := New(4, 4, 8)
		initDeterministic(m, data)
		cfg := batchCfg(6, KernelGaussian)
		cfg.Parallelism = p
		stats, err := m.TrainBatchSet(NewTrainSet(rowsView(t, data)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m, stats
	}
	ref, refStats := run(1)
	for _, p := range []int{2, 3, 8, 0} {
		m, stats := run(p)
		for i := range ref.flat {
			if math.Float64bits(m.flat[i]) != math.Float64bits(ref.flat[i]) {
				t.Fatalf("Parallelism=%d weight value %d differs from serial: %v vs %v",
					p, i, m.flat[i], ref.flat[i])
			}
		}
		for e := range refStats.EpochMQE {
			if math.Float64bits(stats.EpochMQE[e]) != math.Float64bits(refStats.EpochMQE[e]) {
				t.Fatalf("Parallelism=%d epoch %d MQE differs from serial", p, e)
			}
		}
	}
}

// TestTrainViewSubsetMatchesGatheredRows proves the zero-copy subset view
// contract: training on a Subset view of a big matrix is bit-identical to
// training on a matrix built from the gathered rows, for both rules.
func TestTrainViewSubsetMatchesGatheredRows(t *testing.T) {
	data := flatTrainData(400, 5, 44)
	mat, err := vecmath.MatrixFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 0, 150)
	for i := 0; i < 400; i += 3 {
		idx = append(idx, i)
	}
	gathered := make([][]float64, len(idx))
	for k, i := range idx {
		gathered[k] = data[i]
	}
	gmat, err := vecmath.MatrixFromRows(gathered)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []bool{true, false} {
		cfg := batchCfg(5, KernelGaussian)
		train := func(m *Map, v vecmath.View) error {
			if batch {
				_, err := m.TrainBatchSet(NewTrainSet(v), cfg)
				return err
			}
			c := cfg
			c.Shuffle = true
			c.Rng = rand.New(rand.NewSource(7))
			_, err := m.TrainOnlineView(v, c)
			return err
		}
		sub, _ := New(3, 3, 5)
		initDeterministic(sub, gathered)
		if err := train(sub, mat.Subset(idx)); err != nil {
			t.Fatal(err)
		}
		full, _ := New(3, 3, 5)
		initDeterministic(full, gathered)
		if err := train(full, gmat.View()); err != nil {
			t.Fatal(err)
		}
		for i := range sub.flat {
			if math.Float64bits(sub.flat[i]) != math.Float64bits(full.flat[i]) {
				t.Fatalf("batch=%v: subset-view training differs from gathered-rows training at value %d", batch, i)
			}
		}
	}
}

// TestTrainSetMatchesView pins the prepared training set to the view it
// was gathered from: the same rows in the same order, and a BMU pass
// over the set (precomputed record norms) bit-identical to the same pass
// over the index view (norms computed per row) — errors, counts and
// assignment alike. At dim 24 and 16 units the blocked engine runs.
func TestTrainSetMatchesView(t *testing.T) {
	const dim = 24
	data := flatTrainData(400, dim, 45)
	mat, err := vecmath.MatrixFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	var idx []int
	for i := 399; i >= 0; i -= 3 {
		idx = append(idx, i)
	}
	view := mat.Subset(idx)
	set := NewTrainSet(view)
	if set.View().Rows() != len(idx) {
		t.Fatalf("set has %d rows, want %d", set.View().Rows(), len(idx))
	}
	for i := range idx {
		if !slices.Equal(set.View().Row(i), view.Row(i)) {
			t.Fatalf("set row %d differs from view row %d", i, i)
		}
	}
	m, _ := New(4, 4, dim)
	initDeterministic(m, data)
	if _, err := m.TrainBatchSet(set, batchCfg(3, KernelGaussian)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3} {
		m.SetParallelism(p)
		bmus := make([]int, len(idx))
		sum, cnt := m.UnitErrorsSet(set, bmus)
		wantSum, wantCnt := unitErrorsRef(m, view)
		for u := range sum {
			if math.Float64bits(sum[u]) != math.Float64bits(wantSum[u]) || cnt[u] != wantCnt[u] {
				t.Fatalf("P=%d unit %d: set (%v, %d), scalar (%v, %d)", p, u, sum[u], cnt[u], wantSum[u], wantCnt[u])
			}
		}
		if want := m.AssignView(view); !slices.Equal(bmus, want) {
			t.Fatalf("P=%d: set BMUs differ from AssignView", p)
		}
	}
}

// TestSkipEpochMQE checks the stats knob: identical weights, empty stats.
func TestSkipEpochMQE(t *testing.T) {
	data := flatTrainData(200, 4, 55)
	run := func(skip bool) (*Map, TrainStats) {
		m, _ := New(3, 3, 4)
		initDeterministic(m, data)
		cfg := batchCfg(4, KernelGaussian)
		cfg.SkipEpochMQE = skip
		stats, err := m.TrainBatchSet(NewTrainSet(rowsView(t, data)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m, stats
	}
	withStats, s1 := run(false)
	without, s2 := run(true)
	if len(s1.EpochMQE) != 4 {
		t.Errorf("EpochMQE has %d entries, want 4", len(s1.EpochMQE))
	}
	if len(s2.EpochMQE) != 0 {
		t.Errorf("SkipEpochMQE stats have %d entries, want 0", len(s2.EpochMQE))
	}
	for i := range withStats.flat {
		if withStats.flat[i] != without.flat[i] {
			t.Fatal("SkipEpochMQE changed training results")
		}
	}
}

// TestScheduleFracReachesEndpoints pins the decay fix: the final epoch
// trains exactly at the schedule's end values, and a single-epoch run
// stays at the start values.
func TestScheduleFracReachesEndpoints(t *testing.T) {
	cfg := batchCfg(5, KernelGaussian)
	if got := cfg.scheduleFrac(0); got != 0 {
		t.Errorf("scheduleFrac(0) = %v, want 0", got)
	}
	if got := cfg.scheduleFrac(4); got != 1 {
		t.Errorf("scheduleFrac(last) = %v, want 1", got)
	}
	if got := cfg.Decay.Interp(cfg.Radius0, cfg.RadiusEnd, cfg.scheduleFrac(4)); got != cfg.RadiusEnd {
		t.Errorf("final-epoch radius = %v, want RadiusEnd %v", got, cfg.RadiusEnd)
	}
	one := batchCfg(1, KernelGaussian)
	if got := one.scheduleFrac(0); got != 0 {
		t.Errorf("single-epoch scheduleFrac = %v, want 0", got)
	}
}

// TestTrainOnlineViewEndpointAlpha spot-checks the online table: with one
// unit and per-epoch parameters, each epoch applies exactly alpha(e) per
// record, so the weight trajectory is a closed form of the schedule.
func TestTrainOnlineViewEndpointAlpha(t *testing.T) {
	m, _ := New(1, 1, 1)
	_ = m.SetWeight(0, []float64{0})
	mat, _ := vecmath.MatrixFromRows([][]float64{{1}})
	cfg := TrainConfig{
		Epochs: 2, Alpha0: 0.5, AlphaEnd: 0.25,
		Radius0: 1, RadiusEnd: 1,
		Kernel: KernelGaussian, Decay: DecayLinear,
		SkipEpochMQE: true,
	}
	if _, err := m.TrainOnlineView(mat.View(), cfg); err != nil {
		t.Fatal(err)
	}
	// Epoch 0 at alpha=0.5: w = 0.5. Epoch 1 at alpha=AlphaEnd=0.25:
	// w = 0.5 + 0.25*(1-0.5) = 0.625. The pre-fix schedule never reached
	// AlphaEnd, so this value is the observable proof of the fix.
	if got := m.Weight(0)[0]; math.Abs(got-0.625) > 1e-15 {
		t.Fatalf("weight after schedule = %v, want 0.625", got)
	}
}

// BenchmarkTrainBatchView measures the flat batch kernel, TrainBatchSet
// over NewTrainSet: records·epochs per second and allocations per epoch
// on a KDD-dimensioned data set.
func BenchmarkTrainBatchView(b *testing.B) {
	const n, dim, epochs = 2000, 41, 10
	data := flatTrainData(n, dim, 77)
	mat, err := vecmath.MatrixFromRows(data)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := New(5, 5, dim)
	initDeterministic(m, data)
	cfg := batchCfg(epochs, KernelGaussian)
	cfg.Parallelism = 1
	cfg.SkipEpochMQE = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.TrainBatchSet(NewTrainSet(mat.View()), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n*epochs*b.N)/b.Elapsed().Seconds(), "rec·epochs/sec")
}

// BenchmarkTrainOnlineView measures the flat online kernel under the same
// shape for comparison with the batch rule.
func BenchmarkTrainOnlineView(b *testing.B) {
	const n, dim, epochs = 2000, 41, 10
	data := flatTrainData(n, dim, 78)
	mat, err := vecmath.MatrixFromRows(data)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := New(5, 5, dim)
	initDeterministic(m, data)
	cfg := batchCfg(epochs, KernelGaussian)
	cfg.Parallelism = 1
	cfg.SkipEpochMQE = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.TrainOnlineView(mat.View(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n*epochs*b.N)/b.Elapsed().Seconds(), "rec·epochs/sec")
}

// oneHotTrainData builds n rows shaped like encoded traffic: ten numeric
// columns that are mostly exact zeros, with some −0, negative values and
// denormals among them, then three one-hot groups (3, 7 and 5 columns).
// Column 8 holds only ±0 and column 9 only ±0 and ±denormals, so their
// sums and weights stay at the scale where a dropped or mis-signed entry
// shows.
func oneHotTrainData(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	tiny := math.SmallestNonzeroFloat64
	groups := []int{3, 7, 5}
	data := make([][]float64, n)
	for i := range data {
		row := make([]float64, 0, 25)
		for j := 0; j < 10; j++ {
			var v float64
			switch r := rng.Float64(); {
			case r < 0.45:
				v = 0
			case r < 0.55 || j == 8:
				v = math.Copysign(0, -1)
			case r < 0.62:
				v = tiny
			case r < 0.66 || j == 9:
				v = -tiny * float64(1+rng.Intn(3))
			default:
				v = rng.NormFloat64() + float64(i%3)
			}
			row = append(row, v)
		}
		for _, g := range groups {
			hot := rng.Intn(g)
			for j := 0; j < g; j++ {
				v := 0.0
				if j == hot {
					v = 1
				}
				row = append(row, v)
			}
		}
		data[i] = row
	}
	return data
}

// denseTrainBatchRef is the dense reference of TrainBatchSet: BMUs from
// vecmath.ArgMinDistance, class sums from dense adds of every entry in
// row order, the same update loop (scalar AXPY), and the epoch MQE summed
// in row order. On at most classFoldGrain rows — one fold chunk — every
// result must have the bits of the sparse training path.
func denseTrainBatchRef(m *Map, data [][]float64, cfg TrainConfig) TrainStats {
	radius0 := cfg.effectiveRadius0(m)
	units, dim, n := m.Units(), m.dim, len(data)
	h := make([]float64, units*units)
	bmus := make([]int, n)
	d2s := make([]float64, n)
	assign := func() {
		for i, x := range data {
			b, d := vecmath.ArgMinDistance(x, m.flat)
			bmus[i], d2s[i] = max(b, 0), d
		}
	}
	mqe := func() float64 {
		var s float64
		for _, d := range d2s {
			s += math.Sqrt(d)
		}
		return s / float64(n)
	}
	stats := TrainStats{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		radius := cfg.Decay.Interp(radius0, cfg.RadiusEnd, cfg.scheduleFrac(epoch))
		m.neighborhoodTable(h, radius, 1, cfg.Kernel, false)
		assign()
		sum := make([]float64, units*dim)
		cnt := make([]int, units)
		for i, x := range data {
			c := bmus[i]
			cnt[c]++
			for j, v := range x {
				sum[c*dim+j] += v
			}
		}
		if epoch > 0 {
			stats.EpochMQE = append(stats.EpochMQE, mqe())
		}
		numer := make([]float64, dim)
		for u := 0; u < units; u++ {
			var denom float64
			clear(numer)
			for c := 0; c < units; c++ {
				hc := h[c*units+u]
				if cnt[c] == 0 || hc <= 0 {
					continue
				}
				denom += hc * float64(cnt[c])
				for j := range numer {
					numer[j] += hc * sum[c*dim+j]
				}
			}
			if denom <= 0 {
				continue
			}
			inv := 1 / denom
			for j, w := range numer {
				m.flat[u*dim+j] = w * inv
			}
		}
	}
	assign()
	stats.EpochMQE = append(stats.EpochMQE, mqe())
	return stats
}

// TestTrainBatchSparseRowsBitIdentical pins the sparse training path —
// BMU scores and class sums over each row's nonzeros — to the dense
// reference bit for bit, on one-hot-shaped rows with exact zeros, −0,
// negative values and denormals, for every kernel at Parallelism 1, 2
// and 0. The 3x4 map engages the expanded-form engine (units·dim ≥ 128);
// the 2x2 map takes the scalar scan.
func TestTrainBatchSparseRowsBitIdentical(t *testing.T) {
	const n = 1500
	if n > classFoldGrain(n) {
		t.Fatalf("%d rows fold in more than one chunk", n)
	}
	data := oneHotTrainData(n, 61)
	for _, shape := range [][2]int{{3, 4}, {2, 2}} {
		for _, kernel := range []Kernel{KernelGaussian, KernelBubble, KernelMexicanHat} {
			ref, _ := New(shape[0], shape[1], 25)
			initDeterministic(ref, data[7:])
			cfg := batchCfg(6, kernel)
			refStats := denseTrainBatchRef(ref, data, cfg)
			for _, p := range []int{1, 2, 0} {
				m, _ := New(shape[0], shape[1], 25)
				initDeterministic(m, data[7:])
				cfg.Parallelism = p
				stats, err := m.TrainBatchSet(NewTrainSet(rowsView(t, data)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ref.flat {
					if math.Float64bits(m.flat[i]) != math.Float64bits(ref.flat[i]) {
						t.Fatalf("%dx%d %s P=%d: weight value %d = %v, dense reference %v",
							shape[0], shape[1], kernel, p, i, m.flat[i], ref.flat[i])
					}
				}
				if len(stats.EpochMQE) != len(refStats.EpochMQE) {
					t.Fatalf("EpochMQE length %d, reference %d", len(stats.EpochMQE), len(refStats.EpochMQE))
				}
				for e := range refStats.EpochMQE {
					if math.Float64bits(stats.EpochMQE[e]) != math.Float64bits(refStats.EpochMQE[e]) {
						t.Fatalf("%dx%d %s P=%d: epoch %d MQE %v, dense reference %v",
							shape[0], shape[1], kernel, p, e, stats.EpochMQE[e], refStats.EpochMQE[e])
					}
				}
			}
		}
	}
}

// TestClassMeansMatchViewMean checks TrainSet.ClassMeans bit for bit
// against vecmath.View.Mean over the same rows, on rows with exact
// zeros, −0 and denormals.
func TestClassMeansMatchViewMean(t *testing.T) {
	data := oneHotTrainData(400, 62)
	mat, err := vecmath.MatrixFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	bmus := make([]int, len(data))
	rows := make([][]int, 5)
	for i := range bmus {
		bmus[i] = (i * 7 / 3) % 5
		rows[bmus[i]] = append(rows[bmus[i]], i)
	}
	take := []bool{true, false, true, true, true}
	means := NewTrainSet(mat.View()).ClassMeans(bmus, take)
	for u, want := range take {
		if !want {
			if means[u] != nil {
				t.Fatalf("unit %d: mean %v, want nil", u, means[u])
			}
			continue
		}
		ref, err := mat.Subset(rows[u]).Mean()
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref {
			if math.Float64bits(means[u][j]) != math.Float64bits(ref[j]) {
				t.Fatalf("unit %d column %d: %v, View.Mean %v", u, j, means[u][j], ref[j])
			}
		}
	}
}
