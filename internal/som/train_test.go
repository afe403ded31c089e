package som

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ghsom/internal/vecmath"
)

// twoClusters returns points drawn from two well-separated gaussian blobs.
func twoClusters(rng *rand.Rand, nPer int) [][]float64 {
	data := make([][]float64, 0, 2*nPer)
	centers := [][]float64{{0, 0}, {10, 10}}
	for _, c := range centers {
		for i := 0; i < nPer; i++ {
			data = append(data, []float64{
				c[0] + rng.NormFloat64()*0.5,
				c[1] + rng.NormFloat64()*0.5,
			})
		}
	}
	return data
}

func TestTrainOnlineReducesMQE(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := twoClusters(rng, 100)
	m, err := New(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InitRandomUniform(data, rng); err != nil {
		t.Fatal(err)
	}
	v := rowsView(t, data)
	before := m.mqeView(v, nil, 0, nil)
	cfg := DefaultTrainConfig(rng)
	cfg.Epochs = 20
	stats, err := m.TrainOnlineView(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := stats.FinalMQE()
	if !(after < before) {
		t.Errorf("training did not reduce MQE: before %v after %v", before, after)
	}
	if after > 1.0 {
		t.Errorf("final MQE %v too high for two tight clusters", after)
	}
	if len(stats.EpochMQE) != cfg.Epochs {
		t.Errorf("EpochMQE has %d entries, want %d", len(stats.EpochMQE), cfg.Epochs)
	}
}

func TestTrainBatchReducesMQE(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := twoClusters(rng, 100)
	m, err := New(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Start from a deliberately poor init: every unit at the global mean,
	// far from both cluster centers.
	for i := 0; i < m.Units(); i++ {
		_ = m.SetWeight(i, []float64{5, 5})
	}
	v := rowsView(t, data)
	before := m.mqeView(v, nil, 0, nil)
	cfg := DefaultTrainConfig(rng)
	cfg.Epochs = 15
	stats, err := m.TrainBatchView(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(stats.FinalMQE() < before/2) {
		t.Errorf("batch training did not substantially reduce MQE: before %v after %v", before, stats.FinalMQE())
	}
}

func TestTrainSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := twoClusters(rng, 150)
	m, _ := New(2, 2, 2)
	if err := m.InitRandomUniform(data, rng); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig(rng)
	cfg.Epochs = 30
	if _, err := m.TrainOnlineView(rowsView(t, data), cfg); err != nil {
		t.Fatal(err)
	}
	// The BMUs of the two cluster centers must differ.
	b1, _ := m.BMU([]float64{0, 0})
	b2, _ := m.BMU([]float64{10, 10})
	if b1 == b2 {
		t.Error("trained 2x2 map does not separate two well-separated clusters")
	}
}

func TestTrainConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := DefaultTrainConfig(rng)
	data := [][]float64{{0, 0}, {1, 1}}
	m, _ := New(2, 2, 2)

	tests := []struct {
		name   string
		mutate func(*TrainConfig)
	}{
		{"zero epochs", func(c *TrainConfig) { c.Epochs = 0 }},
		{"alpha0 zero", func(c *TrainConfig) { c.Alpha0 = 0 }},
		{"alpha0 above one", func(c *TrainConfig) { c.Alpha0 = 1.5 }},
		{"alphaEnd above alpha0", func(c *TrainConfig) { c.AlphaEnd = 0.9; c.Alpha0 = 0.5 }},
		{"negative alphaEnd", func(c *TrainConfig) { c.AlphaEnd = -0.1 }},
		{"bad kernel", func(c *TrainConfig) { c.Kernel = Kernel(99) }},
		{"bad decay", func(c *TrainConfig) { c.Decay = Decay(0) }},
		{"shuffle without rng", func(c *TrainConfig) { c.Rng = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := m.TrainOnlineView(rowsView(t, data), cfg); err == nil {
				t.Error("TrainOnlineView accepted invalid config")
			}
			if _, err := m.TrainBatchView(rowsView(t, data), cfg); err == nil {
				t.Error("TrainBatchView accepted invalid config")
			}
		})
	}
}

func TestTrainDataValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, _ := New(2, 2, 2)
	cfg := DefaultTrainConfig(rng)
	if _, err := m.TrainOnlineView(vecmath.View{}, cfg); !errors.Is(err, ErrNoData) {
		t.Errorf("TrainOnlineView(empty) err = %v, want ErrNoData", err)
	}
	if _, err := m.TrainOnlineView(rowsView(t, [][]float64{{1, 2, 3}}), cfg); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("TrainOnlineView wrong-dim err = %v, want ErrDimMismatch", err)
	}
}

func TestTrainDoesNotMutateData(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	v := rowsView(t, data)
	m, _ := New(2, 2, 2)
	_ = m.InitSample(data, rng)
	cfg := DefaultTrainConfig(rng)
	cfg.Epochs = 3
	if _, err := m.TrainOnlineView(v, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !vecmath.Equal(v.Row(i), data[i], 0) {
			t.Fatalf("TrainOnlineView mutated view row %d", i)
		}
	}
}

func TestTrainDeterministicWithSeed(t *testing.T) {
	run := func() *Map {
		rng := rand.New(rand.NewSource(42))
		data := twoClusters(rng, 50)
		m, _ := New(3, 3, 2)
		_ = m.InitRandomUniform(data, rng)
		cfg := DefaultTrainConfig(rng)
		cfg.Epochs = 5
		_, _ = m.TrainOnlineView(rowsView(t, data), cfg)
		return m
	}
	m1, m2 := run(), run()
	for i := 0; i < m1.Units(); i++ {
		if !vecmath.Equal(m1.Weight(i), m2.Weight(i), 0) {
			t.Fatalf("same seed produced different weights at unit %d", i)
		}
	}
}

func TestBMU(t *testing.T) {
	m, _ := New(1, 3, 1)
	_ = m.SetWeight(0, []float64{0})
	_ = m.SetWeight(1, []float64{5})
	_ = m.SetWeight(2, []float64{10})
	tests := []struct {
		x    float64
		want int
	}{
		{-1, 0}, {2.4, 0}, {2.6, 1}, {7.6, 2}, {100, 2},
	}
	for _, tt := range tests {
		if got, _ := m.BMU([]float64{tt.x}); got != tt.want {
			t.Errorf("BMU(%v) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

func TestBMU2(t *testing.T) {
	m, _ := New(1, 3, 1)
	_ = m.SetWeight(0, []float64{0})
	_ = m.SetWeight(1, []float64{5})
	_ = m.SetWeight(2, []float64{10})
	first, second := m.BMU2([]float64{1})
	if first != 0 || second != 1 {
		t.Errorf("BMU2(1) = (%d, %d), want (0, 1)", first, second)
	}
	first, second = m.BMU2([]float64{9})
	if first != 2 || second != 1 {
		t.Errorf("BMU2(9) = (%d, %d), want (2, 1)", first, second)
	}
}

func TestBMUWhere(t *testing.T) {
	m, _ := New(1, 3, 1)
	_ = m.SetWeight(0, []float64{0})
	_ = m.SetWeight(1, []float64{5})
	_ = m.SetWeight(2, []float64{10})
	// Unrestricted: same as BMU.
	bmu, _, ok := m.BMUWhere([]float64{1}, func(int) bool { return true })
	if !ok || bmu != 0 {
		t.Errorf("BMUWhere unrestricted = %d, %v", bmu, ok)
	}
	// Exclude the true BMU: second-best wins.
	bmu, d2, ok := m.BMUWhere([]float64{1}, func(u int) bool { return u != 0 })
	if !ok || bmu != 1 {
		t.Errorf("BMUWhere excluding 0 = %d, %v", bmu, ok)
	}
	if d2 != 16 {
		t.Errorf("BMUWhere dist2 = %v, want 16", d2)
	}
	// Nothing allowed.
	if _, _, ok := m.BMUWhere([]float64{1}, func(int) bool { return false }); ok {
		t.Error("BMUWhere with empty allow-set reported ok")
	}
}

func TestBMU2SingleUnit(t *testing.T) {
	m, _ := New(1, 1, 1)
	first, second := m.BMU2([]float64{3})
	if first != 0 || second != 0 {
		t.Errorf("BMU2 on single-unit map = (%d, %d), want (0, 0)", first, second)
	}
}

func TestPropBMUIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		rows := 1 + rng.Intn(5)
		cols := 1 + rng.Intn(5)
		dim := 1 + rng.Intn(8)
		m, _ := New(rows, cols, dim)
		data := make([][]float64, 10)
		for i := range data {
			data[i] = make([]float64, dim)
			for d := range data[i] {
				data[i][d] = rng.NormFloat64()
			}
		}
		_ = m.InitRandomUniform(data, rng)
		x := data[rng.Intn(len(data))]
		bmu, d2 := m.BMU(x)
		for i := 0; i < m.Units(); i++ {
			if vecmath.SquaredDistance(x, m.Weight(i)) < d2-1e-12 {
				t.Fatalf("unit %d closer than reported BMU %d", i, bmu)
			}
		}
	}
}

func TestInitAroundMean(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, _ := New(2, 2, 3)
	mean := []float64{5, 5, 5}
	if err := m.InitAroundMean(mean, 0.01, rng); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Units(); i++ {
		if vecmath.Distance(m.Weight(i), mean) > 1 {
			t.Errorf("unit %d initialized far from mean: %v", i, m.Weight(i))
		}
	}
	if err := m.InitAroundMean([]float64{1}, 0.1, rng); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("InitAroundMean wrong dim err = %v", err)
	}
}

func TestInitLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Data stretched along the x axis: rows of the map must span x.
	data := make([][]float64, 500)
	for i := range data {
		data[i] = []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 1}
	}
	m, _ := New(5, 3, 2)
	if err := m.InitLinear(data, rng); err != nil {
		t.Fatal(err)
	}
	// Weights along the row dimension move mostly in x.
	top := m.WeightAt(0, 1)
	bottom := m.WeightAt(4, 1)
	if math.Abs(top[0]-bottom[0]) < math.Abs(top[1]-bottom[1]) {
		t.Errorf("rows do not span the dominant axis: top %v bottom %v", top, bottom)
	}
	// The map is ordered: row coordinates monotone along x (the PCA axis
	// sign is arbitrary, so either direction qualifies).
	xs := make([]float64, 5)
	for r := 0; r < 5; r++ {
		xs[r] = m.WeightAt(r, 1)[0]
	}
	if !monotone(xs) {
		t.Fatalf("linear init rows not ordered: %v", xs)
	}
	// Center unit near the data mean (0, 0).
	center := m.WeightAt(2, 1)
	if math.Abs(center[0]) > 1.5 || math.Abs(center[1]) > 1.5 {
		t.Errorf("center unit = %v, want near origin", center)
	}
}

func TestInitLinearOneDim(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	data := make([][]float64, 100)
	for i := range data {
		data[i] = []float64{rng.NormFloat64() * 3}
	}
	m, _ := New(4, 1, 1)
	if err := m.InitLinear(data, rng); err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 4)
	for r := range xs {
		xs[r] = m.WeightAt(r, 0)[0]
	}
	if !monotone(xs) {
		t.Errorf("1-D linear init not ordered: %v", xs)
	}
}

// monotone reports whether xs is strictly increasing or strictly
// decreasing.
func monotone(xs []float64) bool {
	inc, dec := true, true
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			inc = false
		}
		if xs[i] >= xs[i-1] {
			dec = false
		}
	}
	return inc || dec
}

func TestInitLinearOrderingAdvantage(t *testing.T) {
	// Linear init's value is a globally ordered starting state, not raw
	// quantization. Its initial MQE must be in the same ballpark as
	// random init, and after brief training the linearly initialized map
	// must preserve topology at least as well (low topographic error).
	rng := rand.New(rand.NewSource(19))
	data := make([][]float64, 400)
	for i := range data {
		data[i] = []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 0.5}
	}
	lin, _ := New(6, 6, 2)
	if err := lin.InitLinear(data, rng); err != nil {
		t.Fatal(err)
	}
	v := rowsView(t, data)
	linMQE := lin.mqeView(v, nil, 0, nil)

	rnd, _ := New(6, 6, 2)
	if err := rnd.InitRandomUniform(data, rng); err != nil {
		t.Fatal(err)
	}
	rndMQE := rnd.mqeView(v, nil, 0, nil)
	if linMQE > rndMQE*3 {
		t.Errorf("linear init MQE %v wildly worse than random %v", linMQE, rndMQE)
	}

	cfg := DefaultTrainConfig(rng)
	cfg.Epochs = 3
	if _, err := lin.TrainOnlineView(v, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := rnd.TrainOnlineView(v, cfg); err != nil {
		t.Fatal(err)
	}
	linTE := lin.TopographicError(data)
	rndTE := rnd.TopographicError(data)
	if linTE > rndTE+0.15 {
		t.Errorf("linear init topographic error %v much worse than random %v", linTE, rndTE)
	}
}

func TestInitLinearErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	m, _ := New(2, 2, 2)
	if err := m.InitLinear(nil, rng); !errors.Is(err, ErrNoData) {
		t.Errorf("InitLinear(nil) err = %v", err)
	}
	if err := m.InitLinear([][]float64{{1}}, rng); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("InitLinear wrong-dim err = %v", err)
	}
}

func TestBatchTrainingIsDeterministicGivenInit(t *testing.T) {
	data := twoClusters(rand.New(rand.NewSource(13)), 50)
	mk := func() *Map {
		m, _ := New(3, 3, 2)
		// Deterministic init: unit i gets data[i].
		for i := 0; i < m.Units(); i++ {
			_ = m.SetWeight(i, data[i])
		}
		cfg := TrainConfig{
			Epochs: 5, Alpha0: 0.5, AlphaEnd: 0.01,
			Radius0: 2, RadiusEnd: 0.5,
			Kernel: KernelGaussian, Decay: DecayLinear,
		}
		_, _ = m.TrainBatchView(rowsView(t, data), cfg)
		return m
	}
	m1, m2 := mk(), mk()
	for i := 0; i < m1.Units(); i++ {
		if !vecmath.Equal(m1.Weight(i), m2.Weight(i), 0) {
			t.Fatal("batch training not deterministic")
		}
	}
}

func TestTrainStatsFinalMQEEmpty(t *testing.T) {
	var s TrainStats
	if !math.IsNaN(s.FinalMQE()) {
		t.Error("FinalMQE of empty stats should be NaN")
	}
}
