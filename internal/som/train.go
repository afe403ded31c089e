package som

import (
	"fmt"
	"math"
	"math/rand"

	"ghsom/internal/vecmath"
)

// TrainConfig controls SOM training. The zero value is not usable; obtain a
// baseline with DefaultTrainConfig and override fields as needed.
type TrainConfig struct {
	// Epochs is the number of full passes over the data.
	Epochs int
	// Alpha0 and AlphaEnd are the initial and final learning rates.
	Alpha0, AlphaEnd float64
	// Radius0 and RadiusEnd are the initial and final neighborhood radii,
	// in grid units. If Radius0 <= 0 it defaults to half the larger grid
	// side at training time.
	Radius0, RadiusEnd float64
	// Kernel is the neighborhood function (default gaussian).
	Kernel Kernel
	// Decay is the parameter schedule (default exponential).
	Decay Decay
	// Shuffle controls whether the presentation order is reshuffled each
	// epoch (online training only).
	Shuffle bool
	// Rng drives initialization sampling and shuffling. Required when
	// Shuffle is set.
	Rng *rand.Rand
	// SkipEpochMQE disables the per-epoch MQE measurement (TrainStats is
	// returned with an empty EpochMQE). Callers that track map quality
	// themselves — the GHSOM growth loop measures its growth criterion
	// after every training call — set it to drop the extra per-epoch data
	// scan.
	SkipEpochMQE bool
	// Parallelism bounds the workers used inside a training call — batch
	// training's BMU pass and the per-epoch MQE measurement of both rules:
	// 0 means GOMAXPROCS, 1 forces strictly serial execution on the
	// calling goroutine. Training results are bit-for-bit identical for
	// every setting (the BMU pass is embarrassingly parallel; accumulation
	// stays in data order). Map-level batch operations called outside
	// training read the separate Map.SetParallelism knob instead.
	Parallelism int
}

// DefaultTrainConfig returns the training configuration used by the GHSOM
// layers: a short, hot training run suited to small growing maps.
func DefaultTrainConfig(rng *rand.Rand) TrainConfig {
	return TrainConfig{
		Epochs:    10,
		Alpha0:    0.5,
		AlphaEnd:  0.01,
		Radius0:   0, // auto: max(rows, cols)/2
		RadiusEnd: 0.5,
		Kernel:    KernelGaussian,
		Decay:     DecayExponential,
		Shuffle:   true,
		Rng:       rng,
	}
}

func (c *TrainConfig) validate() error {
	if c.Epochs < 1 {
		return fmt.Errorf("som: epochs %d, want >= 1", c.Epochs)
	}
	if c.Alpha0 <= 0 || c.Alpha0 > 1 {
		return fmt.Errorf("som: alpha0 %v outside (0, 1]", c.Alpha0)
	}
	if c.AlphaEnd < 0 || c.AlphaEnd > c.Alpha0 {
		return fmt.Errorf("som: alphaEnd %v outside [0, alpha0=%v]", c.AlphaEnd, c.Alpha0)
	}
	if !c.Kernel.Valid() {
		return fmt.Errorf("som: invalid kernel %v", c.Kernel)
	}
	if !c.Decay.Valid() {
		return fmt.Errorf("som: invalid decay %v", c.Decay)
	}
	if c.Shuffle && c.Rng == nil {
		return fmt.Errorf("som: shuffle requested without rng")
	}
	return nil
}

// effectiveRadius0 resolves the auto (non-positive) initial radius.
func (c *TrainConfig) effectiveRadius0(m *Map) float64 {
	if c.Radius0 > 0 {
		return c.Radius0
	}
	r := float64(m.rows)
	if float64(m.cols) > r {
		r = float64(m.cols)
	}
	r /= 2
	if r < 1 {
		r = 1
	}
	return r
}

// TrainStats reports per-epoch quality collected during training.
type TrainStats struct {
	// EpochMQE is the mean quantization error measured after each epoch.
	EpochMQE []float64
}

// InitSample initializes each unit with a uniformly sampled data vector
// (with replacement).
func (m *Map) InitSample(data [][]float64, rng *rand.Rand) error {
	if err := m.checkData(data); err != nil {
		return err
	}
	for i := 0; i < m.Units(); i++ {
		copy(m.Weight(i), data[rng.Intn(len(data))])
	}
	m.touch()
	return nil
}

// InitAroundMean initializes every unit at mean plus gaussian jitter of the
// given spread. This is the GHSOM child-map initializer: new maps start
// near their parent unit's position in weight space.
func (m *Map) InitAroundMean(mean []float64, spread float64, rng *rand.Rand) error {
	if len(mean) != m.dim {
		return fmt.Errorf("init around mean of dim %d on dim-%d map: %w", len(mean), m.dim, ErrDimMismatch)
	}
	for i := 0; i < m.Units(); i++ {
		w := m.Weight(i)
		for d := range w {
			w[d] = mean[d] + rng.NormFloat64()*spread
		}
	}
	m.touch()
	return nil
}

// BMU returns the index of the best-matching (nearest) unit for x and the
// squared distance to it.
func (m *Map) BMU(x []float64) (int, float64) {
	if len(x) == m.dim {
		best, bestDist := vecmath.ArgMinDistance(x, m.flat)
		if best < 0 {
			// Degenerate query (e.g. all-NaN distances): keep the
			// historical contract of reporting unit 0.
			return 0, bestDist
		}
		return best, bestDist
	}
	// Dimension-mismatched query: ArgMinDistance strides by len(x), which
	// would walk misaligned rows. Fall back to the per-unit kernel, whose
	// contract matches the pre-flat storage (prefix distance for short
	// queries, panic for long ones) and always yields an in-range unit.
	best, bestDist := 0, math.Inf(1)
	for i, units := 0, m.Units(); i < units; i++ {
		if d := vecmath.SquaredDistance(x, m.Weight(i)); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}
