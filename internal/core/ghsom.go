// Package core implements the Growing Hierarchical Self-Organizing Map
// (GHSOM) — the primary contribution reproduced by this repository.
//
// A GHSOM is a tree of small SOMs. Training starts with a virtual layer-0
// map consisting of a single unit whose weight is the mean of all training
// data; its quantization error mqe0 measures the total variation of the
// data. Layer 1 is a 2x2 SOM that grows horizontally — inserting rows or
// columns between the highest-error unit and its most dissimilar neighbor —
// until its mean unit error falls below tau1 times the error of its parent
// unit. Any unit that still represents its data too coarsely (unit error
// above tau2 times mqe0) is expanded vertically with a child map trained
// only on the records mapped to that unit. The two parameters therefore
// control the shape of the model: tau1 the breadth of each map, tau2 the
// overall depth/granularity of the hierarchy.
//
// Reference: Dittenbach, Merkl, Rauber — "The Growing Hierarchical
// Self-Organizing Map" (IJCNN 2000); Rauber, Merkl, Dittenbach (IEEE TNN
// 2002). This is the algorithm applied to network intrusion detection by
// the DSN 2013 paper this repository reproduces.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"ghsom/internal/som"
)

// Errors returned by the package.
var (
	// ErrNoData is returned when training is attempted with no data.
	ErrNoData = errors.New("core: no training data")
	// ErrBadConfig is returned when a Config fails validation.
	ErrBadConfig = errors.New("core: invalid config")
)

// Config controls GHSOM training. Obtain defaults with DefaultConfig and
// override as needed; all fields are validated by Train.
type Config struct {
	// Tau1 is the breadth parameter: a map stops growing horizontally once
	// its mean unit quantization error drops below Tau1 times the
	// quantization error of its parent unit. Smaller values produce larger,
	// flatter maps. Must be in (0, 1].
	Tau1 float64
	// Tau2 is the depth parameter: a unit is expanded into a child map
	// while its quantization error exceeds Tau2 times the layer-0 error of
	// the whole data set. Smaller values produce deeper hierarchies. Must
	// be in (0, 1].
	Tau2 float64
	// MaxDepth caps hierarchy depth (layer-1 map has depth 1). Must be at
	// least 1.
	MaxDepth int
	// MaxMapUnits caps the number of units any single map may grow to.
	MaxMapUnits int
	// MaxGrowIters caps the number of row/column insertions per map.
	MaxGrowIters int
	// MinMapData is the minimum number of records a unit must win before
	// it may be expanded into a child map.
	MinMapData int
	// EpochsPerGrowth is the number of training epochs between growth
	// checks.
	EpochsPerGrowth int
	// FineTuneEpochs is the number of additional epochs after a map stops
	// growing.
	FineTuneEpochs int
	// Alpha0 and AlphaEnd are the online learning-rate schedule endpoints.
	Alpha0, AlphaEnd float64
	// RadiusEnd is the final neighborhood radius; the initial radius is
	// always derived from the current map size.
	RadiusEnd float64
	// Kernel is the SOM neighborhood function.
	Kernel som.Kernel
	// Decay is the SOM parameter schedule.
	Decay som.Decay
	// Batch selects deterministic batch training instead of online
	// stochastic training for each map.
	Batch bool
	// InitSpread is the standard deviation of the gaussian jitter used to
	// initialize child maps around their parent unit's weight.
	InitSpread float64
	// OrientChildren initializes each child 2x2 map from the parent
	// unit's grid neighborhood so child maps inherit the parent layer's
	// orientation (the coherent-orientation refinement of the original
	// GHSOM papers). When false, children start as jittered copies of
	// their data mean.
	OrientChildren bool
	// Seed drives all stochastic choices; identical seeds and data yield
	// identical models. Each node of the hierarchy trains on its own RNG
	// stream derived deterministically from Seed and the node's position in
	// the tree, so the model is reproducible at every Parallelism setting.
	Seed int64
	// CollectTrace enables recording of the per-map growth trace used by
	// the convergence and growth figures. Off by default to save memory.
	CollectTrace bool
	// Parallelism is the worker budget of training: 0 means GOMAXPROCS,
	// 1 forces serial execution. Each map starts as soon as its parent
	// has trained and holds one worker; workers no map holds join the
	// running maps' batch BMU passes. The trained model's batch
	// operations use the same bound. Models are bit-for-bit identical for
	// every setting. The knob is an execution detail, not model state,
	// and is excluded from serialized models.
	Parallelism int `json:"-"`
}

// DefaultConfig returns the configuration used by the reproduction
// experiments: tau1=0.6, tau2=0.03, online training.
func DefaultConfig() Config {
	return Config{
		Tau1:            0.6,
		Tau2:            0.03,
		MaxDepth:        4,
		MaxMapUnits:     100,
		MaxGrowIters:    20,
		MinMapData:      30,
		EpochsPerGrowth: 5,
		FineTuneEpochs:  10,
		Alpha0:          0.5,
		AlphaEnd:        0.01,
		RadiusEnd:       0.5,
		Kernel:          som.KernelGaussian,
		Decay:           som.DecayExponential,
		InitSpread:      0.05,
		OrientChildren:  true,
		Seed:            1,
	}
}

// Validate checks the configuration, returning an error wrapping
// ErrBadConfig when a field is out of range.
func (c Config) Validate() error {
	switch {
	case !(c.Tau1 > 0 && c.Tau1 <= 1):
		return fmt.Errorf("tau1 %v outside (0, 1]: %w", c.Tau1, ErrBadConfig)
	case !(c.Tau2 > 0 && c.Tau2 <= 1):
		return fmt.Errorf("tau2 %v outside (0, 1]: %w", c.Tau2, ErrBadConfig)
	case c.MaxDepth < 1:
		return fmt.Errorf("maxDepth %d < 1: %w", c.MaxDepth, ErrBadConfig)
	case c.MaxMapUnits < 4:
		return fmt.Errorf("maxMapUnits %d < 4: %w", c.MaxMapUnits, ErrBadConfig)
	case c.MaxGrowIters < 0:
		return fmt.Errorf("maxGrowIters %d < 0: %w", c.MaxGrowIters, ErrBadConfig)
	case c.MinMapData < 1:
		return fmt.Errorf("minMapData %d < 1: %w", c.MinMapData, ErrBadConfig)
	case c.EpochsPerGrowth < 1:
		return fmt.Errorf("epochsPerGrowth %d < 1: %w", c.EpochsPerGrowth, ErrBadConfig)
	case c.FineTuneEpochs < 0:
		return fmt.Errorf("fineTuneEpochs %d < 0: %w", c.FineTuneEpochs, ErrBadConfig)
	case !(c.Alpha0 > 0 && c.Alpha0 <= 1):
		return fmt.Errorf("alpha0 %v outside (0, 1]: %w", c.Alpha0, ErrBadConfig)
	case c.AlphaEnd < 0 || c.AlphaEnd > c.Alpha0:
		return fmt.Errorf("alphaEnd %v outside [0, alpha0]: %w", c.AlphaEnd, ErrBadConfig)
	case !c.Kernel.Valid():
		return fmt.Errorf("kernel %v: %w", c.Kernel, ErrBadConfig)
	case !c.Decay.Valid():
		return fmt.Errorf("decay %v: %w", c.Decay, ErrBadConfig)
	case c.InitSpread < 0:
		return fmt.Errorf("initSpread %v < 0: %w", c.InitSpread, ErrBadConfig)
	}
	return nil
}

// Node is one map in the GHSOM hierarchy.
type Node struct {
	// ID is a stable, breadth-first identifier unique within the model.
	ID int
	// Depth is the node's layer: the root (layer-1) map has depth 1.
	Depth int
	// Map is the trained SOM of this node.
	Map *som.Map
	// ParentUnit is the unit index in the parent map that this node
	// expands; -1 for the root.
	ParentUnit int
	// Children maps a unit index of this node's Map to the child expanding
	// it. Units without children are leaves of the hierarchy at this node.
	Children map[int]*Node
	// UnitQE holds the mean quantization error of each unit over the
	// training records mapped to it (zero for units that won nothing).
	UnitQE []float64
	// UnitCount holds the number of training records mapped to each unit.
	UnitCount []int
}

// IsLeafUnit reports whether unit u of this node has no child map.
func (n *Node) IsLeafUnit(u int) bool {
	_, ok := n.Children[u]
	return !ok
}

// GHSOM is a trained growing hierarchical self-organizing map.
type GHSOM struct {
	cfg   Config
	dim   int
	mean  []float64
	mqe0  float64
	root  *Node
	nodes []*Node // all nodes in registration (BFS) order, nodes[i].ID == i
	trace *GrowthTrace
}

// Config returns the configuration the model was trained with.
func (g *GHSOM) Config() Config { return g.cfg }

// Root returns the layer-1 node.
func (g *GHSOM) Root() *Node { return g.root }

// Nodes returns all nodes in stable breadth-first order. The returned
// slice is shared; callers must not modify it.
func (g *GHSOM) Nodes() []*Node { return g.nodes }

// Node returns the node with the given ID, or nil if out of range.
func (g *GHSOM) Node(id int) *Node {
	if id < 0 || id >= len(g.nodes) {
		return nil
	}
	return g.nodes[id]
}

// Trace returns the growth trace recorded during training, or nil when
// tracing was disabled.
func (g *GHSOM) Trace() *GrowthTrace { return g.trace }

// newRNG builds the model's deterministic random source.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
