package ghsom

import (
	"context"
	"errors"
	"fmt"
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
	// stages — training-set encoding/scaling and batch inference — with 0
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
	encoder *kdd.Encoder
	scaler  *preprocess.MinMaxScaler
	// rows is the inference encode kernel: the encoder fused with the
	// scaler's tables.
	rows     *kdd.ScaledEncoder
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
	// passPool recycles the state of merged detection passes.
	passPool sync.Pool
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

// newScaledEncoder builds the inference encode kernel of an encoder and
// its fitted scaler: the scaler's min and span, and its own output for
// an all-zero and an all-one row, which give every one-hot dimension's
// scaled 0 and 1.
func newScaledEncoder(enc *kdd.Encoder, scaler *preprocess.MinMaxScaler) (*kdd.ScaledEncoder, error) {
	d := enc.Dim()
	min, span := scaler.State()
	zero := make([]float64, d)
	one := make([]float64, d)
	for i := range one {
		one[i] = 1
	}
	if err := scaler.TransformInPlace(zero); err != nil {
		return nil, err
	}
	if err := scaler.TransformInPlace(one); err != nil {
		return nil, err
	}
	return kdd.NewScaledEncoder(enc, min, span, zero, one)
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
		for r := lo; r < hi; r++ {
			if err := encoder.EncodeInto(&records[r], flat[r*d:(r+1)*d]); err != nil {
				return fmt.Errorf("record %d: %w", r, err)
			}
		}
		return nil
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
	rows, err := newScaledEncoder(encoder, scaler)
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
		rows:     rows,
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

// encodeOne encodes and scales one record into row with the batch
// kernel, so every single-record entry point (Detect, Encode, Explain)
// rejects a record exactly as DetectBatch does.
func (p *Pipeline) encodeOne(rec *Record, row []float64) error {
	if err := p.rows.EncodeRecords(unsafe.Slice(rec, 1), 0, row); err != nil {
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
// each worker runs its chunk through the inference encode kernel
// (kdd.ScaledEncoder: categorical lookup, log transform, finite check
// and scaling in one pass per row, the kernel DetectColumnar runs) into
// a pooled flat arena and classifies it through the detector's batch
// path — whose hierarchy descent runs on the blocked GEMM BMU engine,
// level-synchronously per chunk — so in steady state the call performs
// no per-record heap allocation. Predictions are positionally stable and
// byte-identical to calling Detect per record, and to DetectColumnar
// over the same records, at every Parallelism setting. On failure the
// error of the lowest-index bad record is returned and out's contents
// are unspecified; each record is checked for an unknown protocol, then
// an unknown flag, then a non-finite feature.
func (p *Pipeline) DetectBatch(records []Record, out []Prediction) ([]Prediction, error) {
	n := len(records)
	if cap(out) < n {
		out = make([]Prediction, n)
	}
	out = out[:n]
	d := p.encoder.Dim()
	chunk := batchChunk(p.cfg.Parallelism, n)
	err := parallel.ForEachChunk(nil, p.cfg.Parallelism, n, chunk, func(w, lo, hi int) error {
		buf := p.getBuf((hi - lo) * d)
		defer p.putBuf(buf)
		flat := buf.flat[:(hi-lo)*d]
		if err := p.rows.EncodeRecords(records[lo:hi], lo, flat); err != nil {
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

// DetectColumnar classifies one decoded batch — a GHSOMWB1 frame or
// NDJSON records decoded by RecordParser.AppendColumnar — into out,
// returning out[:cb.Rows()]. The batch's symbol tables are bound to the
// encoder's vocabulary once, then each worker runs its chunk of rows
// through the same encode kernel as DetectBatch — categorical lookup,
// log transform, finite check and scaling fused in one pass per row,
// with no intermediate Record structs — into a pooled flat arena, and
// classifies it through the detector's batch path. Verdicts are
// byte-identical to DetectBatch over the same records at every
// Parallelism setting, and steady state performs no per-record heap
// allocation. On failure the error of the lowest-index bad record is
// returned, with DetectBatch's message, and out's contents are
// unspecified. It rejects non-finite feature values like DetectBatch: a
// frame carries raw float64 columns, and a NaN smuggled through would
// poison the verdict and break the NDJSON response encoding downstream.
func (p *Pipeline) DetectColumnar(cb *ColumnarBatch, out []Prediction) ([]Prediction, error) {
	m := p.getPass()
	defer p.putPass(m)
	m.one[0] = cb
	out, err := p.detectMerged(nil, m, m.one[:], out, m.oneErr[:])
	if err == nil {
		err = m.oneErr[0]
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// errAllFailed stops a merged pass once every batch has failed.
var errAllFailed = errors.New("ghsom: every batch failed")

// DetectMergedCtx classifies several decoded batches in one dataplane
// pass, as if their rows were one batch: out[:total] receives the
// verdicts of batches[0]'s rows, then batches[1]'s, and so on, with
// total the sum of their Rows. Chunks of the merged rows run on the
// pipeline's Parallelism exactly as in DetectColumnar, so each verdict
// is byte-identical to DetectColumnar over its own batch. ctx is checked
// only between chunks (see parallel.ForEachChunk), so an uncanceled pass
// runs the identical chunked computation, while a canceled one stops
// without waiting for the tail chunks and returns ctx.Err(). A nil ctx
// never cancels.
//
// A batch whose rows fail to encode fails alone: errs[i] (errs must be
// at least as long as batches) receives DetectColumnar's error for
// batches[i], naming the lowest bad record by its index in that batch,
// and that batch's verdicts are unspecified; the other batches are
// classified. The returned error is for the whole pass — cancellation,
// or a classify failure — and leaves every output unspecified.
func (p *Pipeline) DetectMergedCtx(ctx context.Context, batches []*ColumnarBatch, out []Prediction, errs []error) ([]Prediction, error) {
	if len(errs) < len(batches) {
		return nil, fmt.Errorf("ghsom: %d error slots for %d batches", len(errs), len(batches))
	}
	m := p.getPass()
	defer p.putPass(m)
	return p.detectMerged(ctx, m, batches, out, errs)
}

// mergedPass is the state one merged pass shares with its chunk
// workers. Passes are pooled with their chunk function, so a pass
// allocates nothing of its own.
type mergedPass struct {
	p       *Pipeline
	batches []*ColumnarBatch
	errs    []error
	out     []Prediction
	mu      sync.Mutex
	failed  int
	// errAt[i] is the first merged row of the chunk segment that failed
	// batches[i]; the lowest one names its lowest bad record.
	errAt  []int
	chunk  func(w, lo, hi int) error
	one    [1]*ColumnarBatch
	oneErr [1]error
}

func (p *Pipeline) getPass() *mergedPass {
	m, _ := p.passPool.Get().(*mergedPass)
	if m == nil {
		m = &mergedPass{p: p}
		m.chunk = m.run
	}
	return m
}

func (p *Pipeline) putPass(m *mergedPass) {
	m.batches, m.errs, m.out, m.one[0], m.oneErr[0] = nil, nil, nil, nil, nil
	p.passPool.Put(m)
}

// detectMerged is DetectMergedCtx on a pass from the pool.
func (p *Pipeline) detectMerged(ctx context.Context, m *mergedPass, batches []*ColumnarBatch, out []Prediction, errs []error) ([]Prediction, error) {
	n := 0
	m.failed = 0
	for i, cb := range batches {
		errs[i] = nil
		if err := p.encoder.BindColumnar(cb); err != nil {
			errs[i] = fmt.Errorf("ghsom: bind columnar frame: %w", err)
			m.failed++
		}
		n += cb.Rows()
	}
	if m.failed == len(batches) {
		return out[:0], nil
	}
	if cap(out) < n {
		out = make([]Prediction, n)
	}
	out = out[:n]
	m.batches, m.errs, m.out = batches, errs, out
	m.errAt = m.errAt[:0]
	err := parallel.ForEachChunk(ctx, p.cfg.Parallelism, n, batchChunk(p.cfg.Parallelism, n), m.chunk)
	if err != nil && err != errAllFailed {
		return nil, err
	}
	return out, nil
}

// run encodes and classifies merged rows [lo, hi): the segments of the
// batches that overlap them, into one pooled arena.
func (m *mergedPass) run(w, lo, hi int) error {
	p := m.p
	d := p.encoder.Dim()
	buf := p.getBuf((hi - lo) * d)
	defer p.putBuf(buf)
	flat := buf.flat[:(hi-lo)*d]
	start := 0
	for i, cb := range m.batches {
		end := start + cb.Rows()
		if a, b := max(lo, start), min(hi, end); a < b {
			seg := flat[(a-lo)*d : (b-lo)*d]
			if err := p.rows.EncodeColumnar(cb, a-start, b-start, seg); err != nil {
				// The failed rows still go through classify with the
				// chunk, so they must hold finite values.
				clear(seg)
				if err := m.fail(i, a, err); err != nil {
					return err
				}
			}
		}
		if start = end; start >= hi {
			break
		}
	}
	return p.detector.ClassifyBatchAt(flat, hi-lo, d, m.out[lo:hi], 1)
}

// fail records err for batches[i], found in the segment starting at
// merged row at, unless a lower segment of it already failed. It
// returns errAllFailed once no batch is left to classify.
func (m *mergedPass) fail(i, at int, err error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.errAt) == 0 {
		m.errAt = append(m.errAt, make([]int, len(m.batches))...)
	}
	if m.errs[i] == nil {
		m.failed++
	} else if at > m.errAt[i] {
		return nil
	}
	m.errs[i], m.errAt[i] = err, at
	if m.failed == len(m.batches) {
		return errAllFailed
	}
	return nil
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

// SetParallelism adjusts the worker bound of the pipeline's batch
// inference (DetectAll, DetectBatch, DetectColumnar and DetectMergedCtx)
// on an already trained or loaded pipeline: 0 means GOMAXPROCS, 1 forces
// serial execution. Predictions are identical at every setting.
func (p *Pipeline) SetParallelism(par int) { p.cfg.Parallelism = par }

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
