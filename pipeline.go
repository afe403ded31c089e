package ghsom

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"unsafe"

	"ghsom/internal/anomaly"
	"ghsom/internal/core"
	"ghsom/internal/kdd"
	"ghsom/internal/parallel"
	"ghsom/internal/preprocess"
	"ghsom/internal/vecmath"
)

// ErrEmptyTrainingSet is returned when TrainPipeline receives no records.
var ErrEmptyTrainingSet = errors.New("ghsom: empty training set")

// PipelineConfig bundles the configuration of the full detection chain.
type PipelineConfig struct {
	// Model configures the GHSOM.
	Model ModelConfig
	// Detector configures unit labeling and novelty thresholds.
	Detector DetectorConfig
	// LogTransform applies log1p to heavy-tailed volume features before
	// scaling (recommended; on in DefaultPipelineConfig).
	LogTransform bool
	// TrainCapPerLabel caps the records per label used for GHSOM weight
	// training, preventing the dominant DoS classes from starving
	// low-volume classes of map area. Zero disables capping. Detector
	// fitting always uses the full training set.
	TrainCapPerLabel int
	// Seed drives the label-capping subsample (the model has its own seed
	// in Model.Seed).
	Seed int64
	// Parallelism bounds the workers used by the pipeline's own batch
	// stages — training-set encoding/scaling and DetectAll — with 0
	// meaning GOMAXPROCS and 1 forcing serial execution. Model training
	// and detector fitting read their own knobs (Model.Parallelism,
	// Detector.Parallelism), which default to GOMAXPROCS too. Results are
	// bit-for-bit identical for every setting.
	Parallelism int
}

// DefaultPipelineConfig returns the production pipeline configuration.
// Unlike the paper-reproduction eval suite (which keeps the paper's
// online operating point), the pipeline trains its maps with the
// deterministic batch rule: on the flat training dataplane the batch
// kernel's BMU-class accumulation is several times faster than online
// updates, and its results are bit-for-bit reproducible at every
// Parallelism setting. Set Model.Batch = false to restore the online
// rule.
func DefaultPipelineConfig() PipelineConfig {
	cfg := PipelineConfig{
		Model:            DefaultModelConfig(),
		Detector:         DetectorConfig{},
		LogTransform:     true,
		TrainCapPerLabel: 3000,
		Seed:             1,
	}
	cfg.Model.Batch = true
	return cfg
}

// Pipeline is a trained end-to-end detector: encoder, scaler, GHSOM, and
// labeled-unit detector. Inference routes through the compiled model —
// the flat-arena, table-driven form built by core.Compile — while the
// pointer-tree model stays available for structural inspection.
type Pipeline struct {
	encoder  *kdd.Encoder
	scaler   *preprocess.MinMaxScaler
	model    *core.GHSOM
	compiled *core.Compiled
	detector *anomaly.Detector
	cfg      PipelineConfig
	// modelOnce guards the lazy Decompile of loaded pipelines: rebuilding
	// the pointer tree copies the whole weight arena, so it is deferred
	// until Model() is first called. Mapped loads in particular stay
	// copy-free through registry startup this way.
	modelOnce sync.Once
	// mapping is the file mapping a mapped load's model views, released by
	// Close. Nil for trained and heap-loaded pipelines, and for mapped
	// loads that view nothing.
	mapping *core.Mapping
	// bufPool recycles per-worker inference arenas across Detect and
	// DetectBatch calls, so steady-state inference performs no per-record
	// heap allocation.
	bufPool sync.Pool
}

// detectChunk is the largest number of records one DetectBatch worker
// processes per pooled arena; batchChunk shrinks it so a batch always
// splits across the available workers. detectGrain is the floor: one
// GEMM tile of rows, so a small batch never splinters into chunks too
// thin for the blocked BMU descent to amortize (the oversubscription
// fix — fan-out below one tile per worker costs more than it buys).
const (
	detectChunk = 256
	detectGrain = vecmath.DefaultTileRows
)

// batchChunk returns the chunk size for an n-record batch at the given
// Parallelism knob: at most detectChunk records per chunk, at least one
// chunk per worker so a modest batch (e.g. one micro-batch of a few
// hundred records) still spreads across cores, and never less than
// detectGrain records per chunk. Chunking never affects
// results — rows are independent — only the worker fan-out.
func batchChunk(par, n int) int {
	w := parallel.WorkersGrain(par, n, detectGrain)
	size := (n + w - 1) / w
	if size > detectChunk {
		size = detectChunk
	}
	if size < detectGrain {
		size = detectGrain
	}
	return size
}

// inferenceBuffer is the reusable flat encode/scale arena of the
// inference dataplane.
type inferenceBuffer struct {
	flat []float64
}

// getBuf returns an arena whose flat slice has capacity at least size.
func (p *Pipeline) getBuf(size int) *inferenceBuffer {
	b, _ := p.bufPool.Get().(*inferenceBuffer)
	if b == nil {
		b = &inferenceBuffer{}
	}
	if cap(b.flat) < size {
		b.flat = make([]float64, size)
	}
	return b
}

func (p *Pipeline) putBuf(b *inferenceBuffer) { p.bufPool.Put(b) }

// encodeScaleRows is the single encode+scale kernel under TrainPipeline
// and DetectBatch: it writes records[r] to flat[r*d : (r+1)*d], scaled in
// place when scaler is non-nil (nil during training, before the scaler is
// fitted). base offsets record indices in error messages so a chunk
// reports positions in the caller's full batch.
func encodeScaleRows(enc *kdd.Encoder, scaler *preprocess.MinMaxScaler, records []Record, base int, flat []float64) error {
	d := enc.Dim()
	for r := range records {
		row := flat[r*d : (r+1)*d]
		if err := enc.EncodeInto(&records[r], row); err != nil {
			return fmt.Errorf("record %d: %w", base+r, err)
		}
		if scaler != nil {
			// Inference-side input hygiene (training encodes with a nil
			// scaler and keeps its historical behavior): a NaN-poisoned
			// record — e.g. a negative count driven through the log
			// transform — would survive min-max scaling, poison its
			// verdict, and break NDJSON response encoding downstream.
			// Reject it here, naming the record, so the serving layer can
			// quarantine exactly that job.
			if err := firstNonFinite(row, len(row), base+r); err != nil {
				return err
			}
			if err := scaler.TransformInPlace(row); err != nil {
				return fmt.Errorf("record %d: %w", base+r, err)
			}
		}
	}
	return nil
}

// TrainPipeline builds the full detection chain from labeled records. The
// training set is encoded into one flat row-major matrix and scaled in
// place — the same batch dataplane DetectBatch runs on — before the GHSOM
// is grown and the detector fitted. Both the growth loop's per-epoch BMU
// passes and the detector's fitting quantization run on the blocked GEMM
// BMU engine (see internal/vecmath), whose results are bit-identical to
// the scalar scans.
func TrainPipeline(records []Record, cfg PipelineConfig) (*Pipeline, error) {
	if len(records) == 0 {
		return nil, ErrEmptyTrainingSet
	}
	encoder := kdd.NewEncoder(records, kdd.EncoderConfig{LogTransform: cfg.LogTransform})
	d := encoder.Dim()
	n := len(records)
	flat := make([]float64, n*d)
	chunk := batchChunk(cfg.Parallelism, n)
	err := parallel.ForEachChunk(nil, cfg.Parallelism, n, chunk, func(_, lo, hi int) error {
		return encodeScaleRows(encoder, nil, records[lo:hi], lo, flat[lo*d:hi*d])
	})
	if err != nil {
		return nil, fmt.Errorf("ghsom: encode training set: %w", err)
	}
	// Row views share the flat backing array: fitting reads them, the
	// in-place batch transform below rescales them, and the model and
	// detector train on the same storage without another copy.
	scaled := make([][]float64, n)
	for i := range scaled {
		scaled[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	scaler := &preprocess.MinMaxScaler{}
	if err := scaler.Fit(scaled); err != nil {
		return nil, fmt.Errorf("ghsom: scale training set: %w", err)
	}
	err = parallel.ForEachChunk(nil, cfg.Parallelism, n, chunk, func(_, lo, hi int) error {
		return scaler.TransformBatch(flat[lo*d:hi*d], d)
	})
	if err != nil {
		return nil, fmt.Errorf("ghsom: scale training set: %w", err)
	}
	labels := kdd.Labels(records)

	// The model trains directly on the encoded flat matrix; the label cap
	// passes its subsample as an index selection, so no rows are copied
	// between encoding and GHSOM growth.
	mat, err := vecmath.MatrixOver(flat, n, d)
	if err != nil {
		return nil, fmt.Errorf("ghsom: training matrix: %w", err)
	}
	var modelIdx []int
	if cfg.TrainCapPerLabel > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed))
		modelIdx = preprocess.CapPerKey(labels, cfg.TrainCapPerLabel, rng)
	}
	model, err := core.TrainMatrix(mat, modelIdx, cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("ghsom: train model: %w", err)
	}
	// Compile once at train time: detector fitting and all inference run
	// on the flat-arena table-driven descent.
	compiled := core.Compile(model)
	det, err := anomaly.Fit(anomaly.NewGHSOMQuantizer(compiled), scaled, labels, cfg.Detector)
	if err != nil {
		return nil, fmt.Errorf("ghsom: fit detector: %w", err)
	}
	return &Pipeline{
		encoder:  encoder,
		scaler:   scaler,
		model:    model,
		compiled: compiled,
		detector: det,
		cfg:      cfg,
	}, nil
}

// Encode converts a record into the scaled feature vector the model sees.
// The returned slice is freshly allocated and owned by the caller.
func (p *Pipeline) Encode(rec *Record) ([]float64, error) {
	out := make([]float64, p.encoder.Dim())
	if err := p.encodeOne(rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// encodeOne encodes and scales one record into row with encodeScaleRows,
// the batch kernel, so every single-record entry point (Detect, Encode,
// Score, Explain) rejects a non-finite feature exactly as DetectBatch
// does.
func (p *Pipeline) encodeOne(rec *Record, row []float64) error {
	if err := encodeScaleRows(p.encoder, p.scaler, unsafe.Slice(rec, 1), 0, row); err != nil {
		return fmt.Errorf("ghsom: %w", err)
	}
	return nil
}

// Detect classifies one record. It runs on the same flat dataplane as
// DetectBatch — a pooled single-row arena, in-place scaling, and the
// shared verdict kernel — so a lone record costs no steady-state heap
// allocation either.
func (p *Pipeline) Detect(rec *Record) (Prediction, error) {
	d := p.encoder.Dim()
	buf := p.getBuf(d)
	defer p.putBuf(buf)
	row := buf.flat[:d]
	if err := p.encodeOne(rec, row); err != nil {
		return Prediction{}, err
	}
	return p.detector.Classify(row), nil
}

// DetectAll classifies a batch of records, allocating the prediction
// slice. It is DetectBatch without buffer reuse on the output; see
// DetectBatch for the batch dataplane contract. On failure the error of
// the lowest-index bad record is returned, matching serial semantics.
func (p *Pipeline) DetectAll(records []Record) ([]Prediction, error) {
	return p.DetectBatch(records, nil)
}

// DetectBatch classifies a batch of records into out, returning
// out[:len(records)]. When out is nil or under capacity a fresh slice is
// allocated, so steady-state callers should pass the slice returned by
// the previous call to reuse it. Records are processed in chunks of a few
// hundred rows, concurrently on the pipeline's configured Parallelism;
// each worker encodes and scales its chunk inside a pooled flat arena and
// classifies it through the detector's batch path — whose hierarchy
// descent runs on the blocked GEMM BMU engine, level-synchronously per
// chunk — so in steady state the call performs no per-record heap
// allocation. Predictions are
// positionally stable and byte-identical to calling Detect per record at
// every Parallelism setting. On failure the error of the lowest-index bad
// record is returned and out's contents are unspecified.
func (p *Pipeline) DetectBatch(records []Record, out []Prediction) ([]Prediction, error) {
	return p.DetectBatchCtx(nil, records, out)
}

// DetectBatchCtx is DetectBatch with cancellation: ctx is checked only
// between chunks (see parallel.ForEachChunk), so an uncanceled
// call executes the identical chunked computation tree as DetectBatch —
// the bit-identity contract holds — while a canceled call stops
// mid-fan-out without waiting for the tail chunks and returns ctx.Err()
// (outputs are then unspecified). A nil ctx never cancels.
func (p *Pipeline) DetectBatchCtx(ctx context.Context, records []Record, out []Prediction) ([]Prediction, error) {
	n := len(records)
	if cap(out) < n {
		out = make([]Prediction, n)
	}
	out = out[:n]
	d := p.encoder.Dim()
	chunk := batchChunk(p.cfg.Parallelism, n)
	err := parallel.ForEachChunk(ctx, p.cfg.Parallelism, n, chunk, func(w, lo, hi int) error {
		buf := p.getBuf((hi - lo) * d)
		defer p.putBuf(buf)
		flat := buf.flat[:(hi-lo)*d]
		if err := encodeScaleRows(p.encoder, p.scaler, records[lo:hi], lo, flat); err != nil {
			return err
		}
		// Serial within the chunk: this loop is already one worker of the
		// outer fan-out, so the detector must not multiply it.
		return p.detector.ClassifyBatchAt(flat, hi-lo, d, out[lo:hi], 1)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DetectColumnar classifies one decoded columnar frame into out,
// returning out[:cb.Rows()]. It is the wire-format twin of DetectBatch:
// the frame's symbol tables are bound to the encoder's vocabulary once,
// then each worker expands its chunk of column runs directly into a
// pooled flat arena — decode, one-hot, log transform, and scaling fused
// in a single pass with no intermediate Record structs — and classifies
// it through the detector's batch path. Verdicts are byte-identical to
// DetectBatch over the same records at every Parallelism setting, and
// steady state performs no per-record heap allocation. On failure the
// error of the lowest-index bad record is returned and out's contents
// are unspecified.
func (p *Pipeline) DetectColumnar(cb *ColumnarBatch, out []Prediction) ([]Prediction, error) {
	return p.DetectColumnarCtx(nil, cb, out)
}

// DetectColumnarCtx is DetectColumnar with cancellation checkpoints
// between chunks, under the same contract as DetectBatchCtx. It also
// rejects non-finite feature values: unlike NDJSON (where JSON cannot
// express NaN/Inf), a columnar frame carries raw float64 columns, and a
// NaN smuggled through would poison the verdict and break the NDJSON
// response encoding downstream. The failing record's index is named so
// the serving layer can quarantine exactly that job.
func (p *Pipeline) DetectColumnarCtx(ctx context.Context, cb *ColumnarBatch, out []Prediction) ([]Prediction, error) {
	if err := p.encoder.BindColumnar(cb); err != nil {
		return nil, fmt.Errorf("ghsom: bind columnar frame: %w", err)
	}
	n := cb.Rows()
	if cap(out) < n {
		out = make([]Prediction, n)
	}
	out = out[:n]
	d := p.encoder.Dim()
	chunk := batchChunk(p.cfg.Parallelism, n)
	err := parallel.ForEachChunk(ctx, p.cfg.Parallelism, n, chunk, func(w, lo, hi int) error {
		buf := p.getBuf((hi - lo) * d)
		defer p.putBuf(buf)
		flat := buf.flat[:(hi-lo)*d]
		if err := p.encoder.EncodeColumnarRows(cb, lo, hi, flat); err != nil {
			return err
		}
		if err := firstNonFinite(flat, d, lo); err != nil {
			return err
		}
		if err := p.scaler.TransformBatch(flat, d); err != nil {
			return err
		}
		return p.detector.ClassifyBatchAt(flat, hi-lo, d, out[lo:hi], 1)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// firstNonFinite scans an encoded chunk for NaN/Inf features, reporting
// the lowest offending record (base offsets indices into the caller's
// full batch). One linear pass over values already hot in cache — noise
// next to the classify descent it guards.
func firstNonFinite(flat []float64, d, base int) error {
	for i, v := range flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("record %d: non-finite feature value", base+i/d)
		}
	}
	return nil
}

// Score returns the anomaly score of a record (higher = more anomalous).
func (p *Pipeline) Score(rec *Record) (float64, error) {
	x, err := p.Encode(rec)
	if err != nil {
		return 0, err
	}
	return p.detector.Score(x), nil
}

// FeatureContribution explains one feature's share of a verdict: how far
// the record sits from its matched prototype along that feature.
type FeatureContribution struct {
	// Feature is the encoded dimension name (e.g. "serror_rate",
	// "flag=S0").
	Feature string
	// Value is the record's scaled feature value.
	Value float64
	// Prototype is the matched unit's value for the feature.
	Prototype float64
	// Delta is Value - Prototype.
	Delta float64
}

// Explain returns the top-k features separating the record from its
// matched prototype, most influential first — the "why was this flagged"
// view. Returns nil if the record cannot be encoded.
func (p *Pipeline) Explain(rec *Record, k int) ([]FeatureContribution, error) {
	x, err := p.Encode(rec)
	if err != nil {
		return nil, err
	}
	contribs := p.detector.Explain(x, k)
	if contribs == nil {
		return nil, nil
	}
	names := p.encoder.FeatureNames()
	out := make([]FeatureContribution, 0, len(contribs))
	for _, c := range contribs {
		if c.Dim < 0 || c.Dim >= len(names) {
			continue
		}
		out = append(out, FeatureContribution{
			Feature:   names[c.Dim],
			Value:     x[c.Dim],
			Prototype: x[c.Dim] - c.Delta,
			Delta:     c.Delta,
		})
	}
	return out, nil
}

// Model returns the trained GHSOM for structural inspection. Pipelines
// loaded from the binary envelope rebuild the pointer tree from the
// compiled model on the first call (the rebuild copies the weight arena,
// which is why loading defers it); the result is cached.
func (p *Pipeline) Model() *Model {
	p.modelOnce.Do(func() {
		if p.model == nil {
			// The compiled model passed full structural validation at load
			// time, so decompilation cannot fail on it; a nil return here
			// would indicate memory corruption, not bad input.
			p.model, _ = p.compiled.Decompile()
		}
	})
	return p.model
}

// Close releases the file mapping backing a pipeline loaded with
// LoadPipelineFile in mapped mode. After Close the pipeline must not be
// used: its model tables alias the unmapped pages. Close is a no-op (and
// always safe) for heap-resident pipelines; it is not idempotent for
// mapped ones.
func (p *Pipeline) Close() error {
	m := p.mapping
	p.mapping = nil
	if m == nil {
		return nil
	}
	return m.Close()
}

// MappedBytes reports how many bytes of the pipeline's model are views
// over a file mapping (0 for heap-resident pipelines) — the
// page-cache-shared portion of the serving footprint.
func (p *Pipeline) MappedBytes() int { return p.compiled.MappedBytes() }

// Compiled returns the compiled (flat-arena) form of the model that the
// pipeline's inference routes on.
func (p *Pipeline) Compiled() *CompiledModel { return p.compiled }

// EnvelopeVersion reports the model file envelope version: the binary
// envelope v3 that Save writes and LoadPipeline reads, the only format.
func (p *Pipeline) EnvelopeVersion() int { return pipelineVersion }

// Detector returns the fitted anomaly detector.
func (p *Pipeline) Detector() *anomaly.Detector { return p.detector }

// Config returns the pipeline's training configuration.
func (p *Pipeline) Config() PipelineConfig { return p.cfg }

// SetParallelism adjusts the worker bound used by the pipeline's batch
// inference (DetectAll and the detector's ClassifyAll) on an already
// trained or loaded pipeline: 0 means GOMAXPROCS, 1 forces serial
// execution. Predictions are identical at every setting.
func (p *Pipeline) SetParallelism(par int) {
	p.cfg.Parallelism = par
	p.detector.SetParallelism(par)
}

// SetBMUPrecision does nothing.
//
// Deprecated: the BMU engine has a single f64 precision; see Precision.
func (p *Pipeline) SetBMUPrecision(Precision) {}

// BMUPrecision returns the BMU search precision, which is always f64.
//
// Deprecated: see Precision.
func (p *Pipeline) BMUPrecision() Precision { return Precision{} }

// Stream wraps the pipeline's detector for online use with the given
// rolling-window alarm configuration.
func (p *Pipeline) Stream(cfg anomaly.StreamConfig) (*anomaly.Stream, error) {
	return anomaly.NewStream(p.detector, cfg)
}
