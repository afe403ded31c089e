// Package anomaly turns a trained vector quantizer — a GHSOM hierarchy, a
// flat SOM, or a k-means codebook — into a network intrusion detector.
//
// Two complementary decision paths are combined, following the GHSOM-IDS
// literature:
//
//  1. Unit labeling: each quantizer cell is labeled by majority vote of
//     the training records it wins. A test record inherits its cell's
//     label; any non-normal label is an attack verdict. This path catches
//     attacks seen (in some form) during training.
//  2. Novelty (quantization error): a record whose distance to its cell
//     exceeds a calibrated per-cell threshold is flagged anomalous even
//     if the cell is labeled normal. This path catches attacks absent
//     from training — the reason to prefer an unsupervised detector.
package anomaly

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"ghsom/internal/parallel"
	"ghsom/internal/vecmath"
)

// Errors returned by the package.
var (
	// ErrNoData is returned when fitting is attempted with no records.
	ErrNoData = errors.New("anomaly: no data")
	// ErrNotFitted is returned when classification precedes fitting.
	ErrNotFitted = errors.New("anomaly: detector not fitted")
)

// Quantizer maps a vector to a discrete cell and a quantization error.
// Cells are opaque strings: "nodeID/unit" for a GHSOM, a unit index for a
// flat SOM, a centroid index for k-means.
type Quantizer interface {
	Quantize(x []float64) (cell string, qe float64)
}

// CellQE is the quantization result for one row of a flat batch.
type CellQE struct {
	// Cell is the quantizer cell the row landed in.
	Cell string
	// QE is the row's quantization error.
	QE float64
}

// BatchQuantizer is a Quantizer with a flat-batch fast path. Fit and
// ClassifyBatchAt use it when available, so quantizers that can amortize
// work across a batch (or avoid per-row allocation, like the GHSOM
// adapter's cached cell names) should implement it.
type BatchQuantizer interface {
	Quantizer
	// QuantizeBatch quantizes the n d-wide rows of the flat row-major
	// matrix into out, which must have length at least n. Each complete
	// row is quantized exactly like Quantize on the corresponding
	// subslice (including degenerate-input behavior); a truncated flat
	// degrades to sentinel cells for the missing tail rather than
	// panicking. Implementations should keep steady-state allocation
	// bounded per batch (not per row) and avoid spawning unbounded
	// concurrency of their own — their callers already parallelize
	// across row ranges.
	QuantizeBatch(flat []float64, n, d int, out []CellQE)
}

// Config controls detector fitting.
type Config struct {
	// NormalLabel is the label of legitimate traffic (default "normal").
	NormalLabel string
	// QEQuantile is the quantile of per-cell training quantization errors
	// used as the novelty threshold (default 0.99). Records above the
	// threshold are anomalous regardless of cell label.
	QEQuantile float64
	// MinCellCount is the minimum number of training records a cell needs
	// for its own threshold; sparser cells fall back to the global
	// threshold (default 5).
	MinCellCount int
	// NoveltyMargin scales the quantile thresholds (default 1.5). Values
	// above 1 absorb distribution shift between training and deployment
	// traffic, trading novelty sensitivity for false-positive rate.
	NoveltyMargin float64
	// Parallelism bounds the workers used by Fit's quantization pass: 0
	// means GOMAXPROCS, 1 forces serial execution. Fitted thresholds are
	// bit-for-bit identical for every setting (per-record quantization is
	// embarrassingly parallel; threshold accumulation stays in data
	// order). Requires the quantizer to be safe for concurrent Quantize
	// calls, which all adapters over trained models in this repository
	// are. The knob is an execution detail, not fitted state, and is
	// excluded from serialized detectors.
	Parallelism int `json:"-"`
}

func (c *Config) fillDefaults() {
	if c.NormalLabel == "" {
		c.NormalLabel = "normal"
	}
	if c.QEQuantile == 0 {
		c.QEQuantile = 0.99
	}
	if c.MinCellCount == 0 {
		c.MinCellCount = 5
	}
	if c.NoveltyMargin == 0 {
		c.NoveltyMargin = 1.5
	}
}

func (c *Config) validate() error {
	if c.QEQuantile < 0 || c.QEQuantile > 1 {
		return fmt.Errorf("anomaly: qeQuantile %v outside [0, 1]", c.QEQuantile)
	}
	if c.MinCellCount < 1 {
		return fmt.Errorf("anomaly: minCellCount %d < 1", c.MinCellCount)
	}
	if c.NoveltyMargin < 1 {
		return fmt.Errorf("anomaly: noveltyMargin %v < 1", c.NoveltyMargin)
	}
	return nil
}

// cellInfo is the fitted state of one quantizer cell.
type cellInfo struct {
	label       string  // majority label
	count       int     // training records seen
	attackFrac  float64 // fraction of training records that are attacks
	qeThreshold float64 // novelty threshold (quantile of training QEs)
}

// Detector is a fitted intrusion detector over a quantizer.
type Detector struct {
	q        Quantizer
	cfg      Config
	cells    map[string]cellInfo
	globalQE float64 // global novelty threshold
	majority string  // dataset-wide majority label (fallback)
}

// Prediction is the verdict for one record.
type Prediction struct {
	// Label is the predicted label: the cell's majority label, or the
	// detector's NovelLabel value when the record hits an unseen cell.
	Label string
	// Attack reports the binary verdict: a non-normal label or a novelty
	// flag.
	Attack bool
	// Novel reports that the record exceeded the novelty threshold or
	// landed in a cell never seen in training.
	Novel bool
	// Cell is the quantizer cell the record landed in.
	Cell string
	// QE is the record's quantization error.
	QE float64
	// Score is a monotone anomaly score in [0, ~2]: the cell's training
	// attack fraction plus the clipped novelty ratio. Suitable for ROC
	// sweeps.
	Score float64
}

// NovelLabel is the label assigned to records landing in cells with no
// training data.
const NovelLabel = "(novel)"

// Fit builds a detector from a trained quantizer, the encoded training
// vectors, and their ground-truth labels.
func Fit(q Quantizer, data [][]float64, labels []string, cfg Config) (*Detector, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, ErrNoData
	}
	if len(data) != len(labels) {
		return nil, fmt.Errorf("anomaly: %d rows vs %d labels", len(data), len(labels))
	}

	// Quantize every record in parallel (the dominant cost: one hierarchy
	// descent per record), then fold the per-cell statistics with the
	// chunked deterministic scheduler: each chunk accumulates its rows in
	// data order into a private table (no shared maps, no false sharing)
	// and the per-chunk partials merge in ascending chunk order, so the
	// fitted thresholds are identical at every Parallelism setting —
	// counts are exact integers and every per-cell QE list comes out in
	// data order, exactly as the retired serial fold produced it.
	// Quantizers with a flat-batch fast path run it over gathered row
	// chunks — the same blocked BMU descent ClassifyBatchAt uses — which is
	// what keeps detector fitting on the batched engine inside
	// TrainPipeline; QuantizeBatch is contractually identical to Quantize
	// per row, so the fitted state does not depend on the path taken.
	cellOf := make([]string, len(data))
	qeOf := make([]float64, len(data))
	if bq, ok := q.(BatchQuantizer); ok && uniformDim(data) > 0 {
		fitQuantizeBatch(bq, data, cellOf, qeOf, cfg.Parallelism)
	} else {
		parallel.ForEachChunk(nil, cfg.Parallelism, len(data), classifyGrain(cfg.Parallelism, len(data)), func(_, lo, hi int) error {
			for i := lo; i < hi; i++ {
				cellOf[i], qeOf[i] = q.Quantize(data[i])
			}
			return nil
		})
	}

	stats := parallel.MapReduceChunk(cfg.Parallelism, len(data), fitStatsGrain, (*fitStats)(nil),
		func(lo, hi int) *fitStats {
			s := &fitStats{
				accum:       make(map[string]*cellAccum),
				labelTotals: make(map[string]int),
				allQEs:      make([]float64, 0, hi-lo),
			}
			for i := lo; i < hi; i++ {
				cell, qe := cellOf[i], qeOf[i]
				a, ok := s.accum[cell]
				if !ok {
					a = &cellAccum{labelCounts: make(map[string]int)}
					s.accum[cell] = a
				}
				a.labelCounts[labels[i]]++
				a.qes = append(a.qes, qe)
				if labels[i] != cfg.NormalLabel {
					a.attacks++
				}
				s.allQEs = append(s.allQEs, qe)
				s.labelTotals[labels[i]]++
			}
			return s
		},
		mergeFitStats)
	accum, allQEs, labelTotals := stats.accum, stats.allQEs, stats.labelTotals

	d := &Detector{
		q:        q,
		cfg:      cfg,
		cells:    make(map[string]cellInfo, len(accum)),
		majority: majorityLabel(labelTotals),
	}
	sort.Float64s(allQEs)
	d.globalQE = vecmath.QuantileSorted(allQEs, cfg.QEQuantile) * cfg.NoveltyMargin
	for cell, a := range accum {
		info := cellInfo{
			label:      majorityLabel(a.labelCounts),
			count:      len(a.qes),
			attackFrac: float64(a.attacks) / float64(len(a.qes)),
		}
		if info.count >= cfg.MinCellCount {
			sort.Float64s(a.qes)
			info.qeThreshold = vecmath.QuantileSorted(a.qes, cfg.QEQuantile) * cfg.NoveltyMargin
			// A cell whose training errors are all ~zero would flag
			// everything; floor at the global threshold scale.
			if info.qeThreshold <= 0 {
				info.qeThreshold = d.globalQE
			}
		} else {
			info.qeThreshold = d.globalQE
		}
		d.cells[cell] = info
	}
	if d.globalQE <= 0 {
		// Degenerate training data (all records identical to their
		// units): fall back to a tiny positive threshold so finite
		// perturbations are flagged but exact matches are not.
		d.globalQE = 1e-9
	}
	return d, nil
}

// cellAccum is the training evidence gathered for one quantizer cell.
type cellAccum struct {
	labelCounts map[string]int
	qes         []float64
	attacks     int
}

// fitStats is one chunk's partial of Fit's statistics fold.
type fitStats struct {
	accum       map[string]*cellAccum
	allQEs      []float64
	labelTotals map[string]int
}

// fitStatsGrain is the chunk grain of the fold: constant, so the chunk
// layout — and with it every per-cell QE list order — depends on the
// row count only, never the worker count.
const fitStatsGrain = 4096

// mergeFitStats folds one chunk partial into the accumulator. Called in
// ascending chunk order, so each cell's QE list and label counts come
// out exactly as a serial data-order pass would produce them (the map
// iteration below is unordered, but each cell merges independently).
func mergeFitStats(acc, part *fitStats) *fitStats {
	if acc == nil {
		return part
	}
	for cell, pa := range part.accum {
		a, ok := acc.accum[cell]
		if !ok {
			acc.accum[cell] = pa
			continue
		}
		for l, n := range pa.labelCounts {
			a.labelCounts[l] += n
		}
		a.qes = append(a.qes, pa.qes...)
		a.attacks += pa.attacks
	}
	acc.allQEs = append(acc.allQEs, part.allQEs...)
	for l, n := range part.labelTotals {
		acc.labelTotals[l] += n
	}
	return acc
}

// uniformDim returns the shared row width of data, or 0 when rows have
// mixed widths (which the per-row path handles and the flat batch path
// cannot).
func uniformDim(data [][]float64) int {
	if len(data) == 0 {
		return 0
	}
	d := len(data[0])
	for _, row := range data[1:] {
		if len(row) != d {
			return 0
		}
	}
	return d
}

// fitScratch is the pooled per-worker gather arena of Fit's batched
// quantize pass.
type fitScratch struct {
	flat  []float64
	cells []CellQE
}

var fitScratchPool = sync.Pool{New: func() any { return &fitScratch{} }}

// fitQuantizeBatch runs Fit's quantization through the quantizer's batch
// path: work-stealing workers gather row chunks into per-worker pooled
// flat arenas (claimed once per call, not per chunk) and quantize each
// with one batch call. Results are positionally identical to per-row
// Quantize at every worker count.
func fitQuantizeBatch(bq BatchQuantizer, data [][]float64, cellOf []string, qeOf []float64, parallelism int) {
	n, d := len(data), len(data[0])
	grain := classifyGrain(parallelism, n)
	scratches := make([]*fitScratch, parallel.WorkersGrain(parallelism, n, grain))
	for i := range scratches {
		scratches[i] = fitScratchPool.Get().(*fitScratch)
	}
	parallel.ForEachChunk(nil, parallelism, n, grain, func(wk, lo, hi int) error {
		sc := scratches[wk]
		// Pool entries are shared across Fit calls with different row
		// widths and chunk sizes: each buffer's capacity must be checked
		// on its own.
		if cap(sc.flat) < (hi-lo)*d {
			sc.flat = make([]float64, (hi-lo)*d)
		}
		if cap(sc.cells) < hi-lo {
			sc.cells = make([]CellQE, hi-lo)
		}
		flat, cells := sc.flat[:(hi-lo)*d], sc.cells[:hi-lo]
		for i := lo; i < hi; i++ {
			copy(flat[(i-lo)*d:(i-lo+1)*d], data[i])
		}
		bq.QuantizeBatch(flat, hi-lo, d, cells)
		for i := lo; i < hi; i++ {
			cellOf[i], qeOf[i] = cells[i-lo].Cell, cells[i-lo].QE
		}
		return nil
	})
	for _, sc := range scratches {
		fitScratchPool.Put(sc)
	}
}

// majorityLabel returns the label with the highest count, breaking ties
// lexicographically for determinism.
func majorityLabel(counts map[string]int) string {
	best, bestN := "", -1
	for l, n := range counts {
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	return best
}

// Classify returns the verdict for one encoded record.
func (d *Detector) Classify(x []float64) Prediction {
	cell, qe := d.q.Quantize(x)
	return d.verdict(cell, qe)
}

// verdict turns a quantization result into a prediction — the single
// decision kernel shared by Classify and ClassifyBatchAt. It performs no
// allocation.
func (d *Detector) verdict(cell string, qe float64) Prediction {
	info, seen := d.cells[cell]
	p := Prediction{Cell: cell, QE: qe}
	if !seen {
		// A cell with no training data is usually an interpolated unit
		// sitting inside a known region, so it is judged purely by the
		// global novelty threshold rather than auto-flagged; only records
		// genuinely far from the codebook become attacks.
		p.Novel = qe > d.globalQE
		p.Attack = p.Novel
		if p.Novel {
			p.Label = NovelLabel
		} else {
			p.Label = d.cfg.NormalLabel
		}
		p.Score = 0.5 + noveltyRatio(qe, d.globalQE)
		return p
	}
	p.Label = info.label
	p.Novel = qe > info.qeThreshold
	p.Attack = info.label != d.cfg.NormalLabel || p.Novel
	p.Score = info.attackFrac + noveltyRatio(qe, info.qeThreshold)
	return p
}

// noveltyRatio maps a quantization error to a bounded [0, 1] novelty
// contribution: 0 well under the threshold, 0.5 at the threshold,
// saturating toward 1 beyond it.
func noveltyRatio(qe, threshold float64) float64 {
	if threshold <= 0 {
		if qe > 0 {
			return 1
		}
		return 0
	}
	r := qe / threshold
	return r / (1 + r)
}

// classifyChunk is the largest number of rows one ClassifyBatchAt worker
// quantizes per pooled CellQE scratch buffer; the chunk size shrinks
// below it so a batch always splits across the configured workers.
const classifyChunk = 256

// classifyGrain is the chunk size of an n-row quantization pass at the
// given worker bound: one chunk per worker, capped at classifyChunk rows.
func classifyGrain(parallelism, n int) int {
	w := parallel.Workers(parallelism, n)
	return max(min((n+w-1)/w, classifyChunk), 1)
}

// cellScratch is the pooled per-worker quantization scratch of
// ClassifyBatchAt.
var cellScratchPool = sync.Pool{
	New: func() any { return &cellScratch{buf: make([]CellQE, classifyChunk)} },
}

type cellScratch struct{ buf []CellQE }

// ClassifyBatchAt classifies the n d-wide rows of the flat row-major
// matrix into out, which must have length at least n. Rows are processed
// in chunks, concurrently on up to parallelism workers (0 = GOMAXPROCS,
// 1 = serial), each chunk quantized through the quantizer's batch path
// (BatchQuantizer) when it has one and per row otherwise. Callers that
// already fan out across row ranges themselves (Pipeline.DetectBatch and
// the merged pass) pin it to 1 so the layers do not multiply their
// worker counts — the same convention the batch quantizers follow one
// layer down. Predictions are positionally stable and byte-identical to
// calling Classify on each row. Verdicts are written straight into out
// and quantization scratch comes from an internal pool, so the call
// allocates per batch, never per record.
func (d *Detector) ClassifyBatchAt(flat []float64, n, dim int, out []Prediction, parallelism int) error {
	if d.q == nil {
		return ErrNotFitted
	}
	if dim <= 0 {
		return fmt.Errorf("anomaly: classify batch with dim %d", dim)
	}
	if len(flat) < n*dim {
		return fmt.Errorf("anomaly: classify batch of %d rows from %d values, want >= %d", n, len(flat), n*dim)
	}
	if len(out) < n {
		return fmt.Errorf("anomaly: classify batch of %d rows into %d predictions", n, len(out))
	}
	bq, batch := d.q.(BatchQuantizer)
	grain := classifyGrain(parallelism, n)
	if !batch {
		parallel.ForEachChunk(nil, parallelism, n, grain, func(_, lo, hi int) error {
			for i := lo; i < hi; i++ {
				cell, qe := d.q.Quantize(flat[i*dim : (i+1)*dim])
				out[i] = d.verdict(cell, qe)
			}
			return nil
		})
		return nil
	}
	// Work-stealing chunks over per-worker scratches: each worker claims
	// one pooled CellQE buffer for the whole call, so the per-chunk path
	// touches no pool and no lock.
	scratches := make([]*cellScratch, parallel.WorkersGrain(parallelism, n, grain))
	for i := range scratches {
		scratches[i] = cellScratchPool.Get().(*cellScratch)
	}
	parallel.ForEachChunk(nil, parallelism, n, grain, func(wk, lo, hi int) error {
		sc := scratches[wk]
		if cap(sc.buf) < hi-lo {
			sc.buf = make([]CellQE, hi-lo)
		}
		cells := sc.buf[:hi-lo]
		bq.QuantizeBatch(flat[lo*dim:hi*dim], hi-lo, dim, cells)
		for i := lo; i < hi; i++ {
			out[i] = d.verdict(cells[i-lo].Cell, cells[i-lo].QE)
		}
		return nil
	})
	for _, sc := range scratches {
		cellScratchPool.Put(sc)
	}
	return nil
}

// Parallelism returns the worker bound the detector was fitted with
// (Config.Parallelism).
func (d *Detector) Parallelism() int { return d.cfg.Parallelism }

// Cells returns the number of distinct cells seen in training.
func (d *Detector) Cells() int { return len(d.cells) }

// LabelDistribution returns, per predicted label, the number of cells
// carrying it — a compact summary of how the quantizer partitioned the
// classes.
func (d *Detector) LabelDistribution() map[string]int {
	out := make(map[string]int)
	for _, info := range d.cells {
		out[info.label]++
	}
	return out
}

// NaNGuard returns a defensive copy of x with NaN/Inf replaced by 0, for
// streaming paths that must not crash on malformed input.
func NaNGuard(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out[i] = v
	}
	return out
}
