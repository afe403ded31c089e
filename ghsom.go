// Package ghsom is a Go implementation of network traffic anomaly
// detection based on the Growing Hierarchical Self-Organizing Map
// (GHSOM), reproducing the DSN 2013 paper "Network traffic anomaly
// detection based on growing hierarchical SOM".
//
// The package is a façade over the repository's internal modules. The
// highest-level entry point is the Pipeline, which bundles the whole
// detection chain — KDD-99 record encoding, feature scaling, GHSOM
// training, unit labeling, and quantization-error novelty detection — and
// is what the examples and CLIs use:
//
//	records, _ := ghsom.GenerateTraffic(ghsom.SmallScenario(1))
//	pipe, _ := ghsom.TrainPipeline(records, ghsom.DefaultPipelineConfig())
//	verdict, _ := pipe.Detect(&records[0])
//	fmt.Println(verdict.Label, verdict.Attack)
//
// Lower-level building blocks (the raw GHSOM over plain vectors, the flat
// SOM substrate, the baselines) are exposed through type aliases so
// downstream code can compose its own pipelines without importing
// internal packages.
//
// Training and batch inference are parallel by default: every layer
// exposes a Parallelism knob (0 = GOMAXPROCS, 1 = serial) — see
// PipelineConfig.Parallelism, ModelConfig.Parallelism, and
// DetectorConfig.Parallelism — and results are bit-for-bit identical at
// every setting (see the "Performance & parallelism" section of the
// README).
//
// Inference runs on a flat, buffer-reusing batch dataplane: DetectBatch
// classifies a batch into a caller-owned prediction slice with zero
// per-record heap allocation in steady state, DetectAll wraps it, and
// Detect runs one record through the same encode kernel and verdict (see
// the "Batch inference & serving" section of the README and
// cmd/ghsom-serve for the micro-batching NDJSON server built on top).
package ghsom

import (
	"fmt"
	"io"
	"strings"

	"ghsom/internal/anomaly"
	"ghsom/internal/core"
	"ghsom/internal/kdd"
	"ghsom/internal/trafficgen"
)

// Record is one KDD-99 connection record (41 features plus label).
type Record = kdd.Record

// Category is the coarse KDD attack taxonomy.
type Category = kdd.Category

// The five record categories.
const (
	Normal = kdd.Normal
	DoS    = kdd.DoS
	Probe  = kdd.Probe
	R2L    = kdd.R2L
	U2R    = kdd.U2R
)

// Model is a trained growing hierarchical self-organizing map.
type Model = core.GHSOM

// CompiledModel is a trained GHSOM compiled for serving: all weights in
// one shared row-major arena with flat routing tables, producing
// placements byte-identical to the tree walk (see core.Compile).
type CompiledModel = core.Compiled

// ModelConfig controls GHSOM training (tau1, tau2, depth caps, ...).
type ModelConfig = core.Config

// Precision is the BMU search precision, which is always f64.
//
// Deprecated: the BMU engine has a single f64 precision; Precision,
// ParsePrecision and Pipeline.SetBMUPrecision/BMUPrecision remain only
// so existing callers keep compiling.
type Precision struct{}

// String returns "f64".
func (Precision) String() string { return "f64" }

// ParsePrecision accepts "", "auto" and "f64" (case-insensitive) and
// rejects every other name.
//
// Deprecated: there is no precision to choose; see Precision.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto", "f64":
		return Precision{}, nil
	}
	return Precision{}, fmt.Errorf("ghsom: unsupported BMU precision %q (the BMU engine is f64 only)", s)
}

// Placement identifies where a vector lands in a trained hierarchy.
type Placement = core.Placement

// Prediction is a detector verdict for one record.
type Prediction = anomaly.Prediction

// DetectorConfig controls unit labeling and novelty thresholds.
type DetectorConfig = anomaly.Config

// GeneratorConfig describes a synthetic traffic scenario.
type GeneratorConfig = trafficgen.Config

// ColumnarBatch is one decoded batch of records: a frame of the columnar
// batch wire format (magic GHSOMWB1) — numeric features as contiguous
// column runs and categoricals as small-int codes against per-frame
// symbol tables — or NDJSON records decoded by
// kdd.RecordParser.AppendColumnar into the same symbol tables. Frames are
// read with ReadColumnarBatch; either kind is classified with
// Pipeline.DetectColumnar, which encodes the rows straight into the
// inference dataplane's flat matrix — no intermediate Record structs.
type ColumnarBatch = kdd.ColumnarBatch

// ColumnarLimits bounds what ReadColumnarBatch accepts from one frame.
type ColumnarLimits = kdd.ColumnarLimits

// ColumnarWriteOptions configures WriteColumnarBatch.
type ColumnarWriteOptions = kdd.ColumnarWriteOptions

// ColumnarContentType is the media type of the columnar wire format on
// HTTP ingestion paths.
const ColumnarContentType = kdd.ColumnarContentType

// DefaultColumnarLimits returns the package-cap frame limits.
func DefaultColumnarLimits() ColumnarLimits { return kdd.DefaultColumnarLimits }

// ReadColumnarBatch reads the next columnar frame from r into cb,
// reusing cb's buffers. It returns io.EOF at a clean end of stream.
func ReadColumnarBatch(r io.Reader, cb *ColumnarBatch, lim ColumnarLimits) error {
	return kdd.ReadColumnarBatch(r, cb, lim)
}

// WriteColumnarBatch writes records as one columnar frame.
func WriteColumnarBatch(w io.Writer, records []Record, opts ColumnarWriteOptions) error {
	return kdd.WriteColumnarBatch(w, records, opts)
}

// DefaultModelConfig returns the GHSOM configuration used by the paper
// reproduction experiments (tau1=0.6, tau2=0.03).
func DefaultModelConfig() ModelConfig { return core.DefaultConfig() }

// TrainModel trains a raw GHSOM on already-encoded vectors. Most callers
// want TrainPipeline instead, which handles encoding and scaling.
func TrainModel(data [][]float64, cfg ModelConfig) (*Model, error) {
	return core.Train(data, cfg)
}

// GenerateTraffic synthesizes a KDD-99-style trace (see GeneratorConfig
// and the scenario constructors).
func GenerateTraffic(cfg GeneratorConfig) ([]Record, error) {
	return trafficgen.Generate(cfg)
}

// KDD99Scenario returns the DoS-heavy headline scenario (~50k records).
func KDD99Scenario(seed int64) GeneratorConfig { return trafficgen.KDD99Like(seed) }

// SmallScenario returns a fast scenario (~5k records) for tests, examples
// and quickstarts.
func SmallScenario(seed int64) GeneratorConfig { return trafficgen.Small(seed) }

// HardScenario returns the high-noise, R2L/U2R-heavy stress scenario.
func HardScenario(seed int64) GeneratorConfig { return trafficgen.HardMix(seed) }

// CategoryOf maps a KDD label to its category.
func CategoryOf(label string) Category { return kdd.CategoryOf(label) }
