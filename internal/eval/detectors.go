package eval

import (
	"fmt"
	"math/rand"
	"time"

	"ghsom/internal/anomaly"
	"ghsom/internal/baseline"
	"ghsom/internal/core"
	"ghsom/internal/metrics"
	"ghsom/internal/parallel"
	"ghsom/internal/preprocess"
	"ghsom/internal/som"
)

// DetectorResult is one row of the headline comparison table (T2): one
// detector evaluated on the shared test split.
type DetectorResult struct {
	// Name identifies the detector ("ghsom", "som-12x12", "kmeans-144",
	// "volume-threshold").
	Name string
	// Accuracy, DetectionRate, FPR, Precision, F1 are the binary
	// (attack vs normal) measures on the test split.
	Accuracy, DetectionRate, FPR, Precision, F1 float64
	// AUC is the area under the score ROC on the test split.
	AUC float64
	// Cells is the detector's codebook size (leaf units / centroids).
	Cells int
	// TrainSeconds is wall-clock training time.
	TrainSeconds float64
	// ClassifyPerSec is test-set classification throughput.
	ClassifyPerSec float64
}

// trainCap bounds per-label training records fed to the quantizer, the
// standard KDD rebalancing step (detector fitting still sees everything).
const trainCap = 3000

// capIdxForModel returns the rebalanced training subset for codebook
// training as row indices into the encoded training matrix — the form
// the GHSOM's zero-copy TrainMatrix path consumes directly.
func capIdxForModel(enc *Encoded, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	return preprocess.CapPerKey(enc.TrainLabels, trainCap, rng)
}

// capForModel returns the rebalanced training subset as gathered rows,
// for the baseline trainers that still take [][]float64.
func capForModel(enc *Encoded, seed int64) [][]float64 {
	return preprocess.Gather(enc.TrainX, capIdxForModel(enc, seed))
}

// evalFoldGrain is the chunk grain of evaluate's classification fold:
// constant, so the chunk layout depends on the test-set size only and
// the tallied outcome is identical at every worker count (the confusion
// counts are exact integers regardless of fold order).
const evalFoldGrain = 1024

// evaluate runs the fitted detector over the test split and fills the
// quality and throughput fields. Records classify concurrently on the
// detector's configured Parallelism: scores and truth are per-slot
// writes and the confusion tally folds per-chunk partials on the
// deterministic chunked scheduler.
func evaluate(name string, det *anomaly.Detector, enc *Encoded, trainSeconds float64) (DetectorResult, error) {
	scores := make([]float64, len(enc.TestX))
	truth := make([]bool, len(enc.TestX))
	start := time.Now()
	outcome := parallel.MapReduceChunk(det.Parallelism(), len(enc.TestX), evalFoldGrain,
		metrics.BinaryOutcome{},
		func(lo, hi int) metrics.BinaryOutcome {
			var part metrics.BinaryOutcome
			for i := lo; i < hi; i++ {
				p := det.Classify(enc.TestX[i])
				truth[i] = enc.TestLabels[i] != "normal"
				part.AddBinary(truth[i], p.Attack)
				scores[i] = p.Score
			}
			return part
		},
		func(acc, part metrics.BinaryOutcome) metrics.BinaryOutcome {
			acc.TP += part.TP
			acc.FP += part.FP
			acc.TN += part.TN
			acc.FN += part.FN
			return acc
		})
	elapsed := time.Since(start).Seconds()
	curve, err := metrics.ROC(scores, truth)
	if err != nil {
		return DetectorResult{}, fmt.Errorf("eval: roc for %s: %w", name, err)
	}
	res := DetectorResult{
		Name:          name,
		Accuracy:      outcome.Accuracy(),
		DetectionRate: outcome.DetectionRate(),
		FPR:           outcome.FalsePositiveRate(),
		Precision:     outcome.Precision(),
		F1:            outcome.F1(),
		AUC:           metrics.AUC(curve),
		Cells:         det.Cells(),
		TrainSeconds:  trainSeconds,
	}
	if elapsed > 0 {
		res.ClassifyPerSec = float64(len(enc.TestX)) / elapsed
	}
	return res, nil
}

// RunGHSOM trains a GHSOM detector and evaluates it. The model trains on
// the encoded flat matrix through the zero-copy subset view of the
// label-capped rows.
func RunGHSOM(enc *Encoded, mcfg core.Config, dcfg anomaly.Config) (DetectorResult, *core.GHSOM, *anomaly.Detector, error) {
	modelIdx := capIdxForModel(enc, mcfg.Seed)
	start := time.Now()
	model, err := core.TrainMatrix(enc.TrainMat, modelIdx, mcfg)
	if err != nil {
		return DetectorResult{}, nil, nil, fmt.Errorf("eval: train ghsom: %w", err)
	}
	det, err := anomaly.Fit(anomaly.NewGHSOMQuantizer(core.Compile(model)), enc.TrainX, enc.TrainLabels, dcfg)
	if err != nil {
		return DetectorResult{}, nil, nil, fmt.Errorf("eval: fit ghsom detector: %w", err)
	}
	trainSecs := time.Since(start).Seconds()
	res, err := evaluate(fmt.Sprintf("ghsom(t1=%.2g,t2=%.2g)", mcfg.Tau1, mcfg.Tau2), det, enc, trainSecs)
	if err != nil {
		return DetectorResult{}, nil, nil, err
	}
	// For the GHSOM the structural codebook size is the leaf-unit count.
	res.Cells = model.Stats().LeafUnits
	return res, model, det, nil
}

// RunSOM trains a flat fixed-size SOM detector and evaluates it.
func RunSOM(enc *Encoded, rows, cols, epochs int, seed int64, dcfg anomaly.Config) (DetectorResult, error) {
	start := time.Now()
	det, err := somDetector(enc, rows, cols, epochs, seed, dcfg)
	if err != nil {
		return DetectorResult{}, err
	}
	trainSecs := time.Since(start).Seconds()
	res, err := evaluate(fmt.Sprintf("som-%dx%d", rows, cols), det, enc, trainSecs)
	if err != nil {
		return DetectorResult{}, err
	}
	res.Cells = rows * cols
	return res, nil
}

// somDetector trains a flat SOM on the label-capped rows, through the
// zero-copy subset view of the encoded matrix, and returns its fitted
// detector.
func somDetector(enc *Encoded, rows, cols, epochs int, seed int64, dcfg anomaly.Config) (*anomaly.Detector, error) {
	idx := capIdxForModel(enc, seed)
	modelData := enc.TrainMat.Subset(idx)
	rng := rand.New(rand.NewSource(seed))
	m, err := som.New(rows, cols, enc.TrainMat.Cols())
	if err != nil {
		return nil, fmt.Errorf("eval: som: %w", err)
	}
	if err := m.InitSample(preprocess.Gather(enc.TrainX, idx), rng); err != nil {
		return nil, fmt.Errorf("eval: som init: %w", err)
	}
	tc := som.DefaultTrainConfig(rng)
	tc.Epochs = epochs
	if _, err := m.TrainOnlineView(modelData, tc); err != nil {
		return nil, fmt.Errorf("eval: som train: %w", err)
	}
	counts := make([]int, m.Units())
	for _, b := range m.AssignView(modelData) {
		counts[b]++
	}
	det, err := anomaly.Fit(anomaly.SOMQuantizer{Map: m, UnitCounts: counts}, enc.TrainX, enc.TrainLabels, dcfg)
	if err != nil {
		return nil, fmt.Errorf("eval: fit som detector: %w", err)
	}
	return det, nil
}

// RunKMeans trains a k-means detector and evaluates it.
func RunKMeans(enc *Encoded, k int, seed int64, dcfg anomaly.Config) (DetectorResult, error) {
	modelData := capForModel(enc, seed)
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	km, err := baseline.TrainKMeans(modelData, baseline.KMeansConfig{K: k, Rng: rng})
	if err != nil {
		return DetectorResult{}, fmt.Errorf("eval: kmeans: %w", err)
	}
	det, err := anomaly.Fit(anomaly.KMeansQuantizer{Model: km}, enc.TrainX, enc.TrainLabels, dcfg)
	if err != nil {
		return DetectorResult{}, fmt.Errorf("eval: fit kmeans detector: %w", err)
	}
	trainSecs := time.Since(start).Seconds()
	res, err := evaluate(fmt.Sprintf("kmeans-%d", k), det, enc, trainSecs)
	if err != nil {
		return DetectorResult{}, err
	}
	res.Cells = km.K()
	return res, nil
}

// RunAgglo trains an agglomerative-clustering detector and evaluates it.
// The dendrogram is built on a subsample bounded by maxN (the algorithm
// is quadratic), then the k-cut codebook labels the full training set.
func RunAgglo(enc *Encoded, k, maxN int, seed int64, dcfg anomaly.Config) (DetectorResult, error) {
	modelData := capForModel(enc, seed)
	if len(modelData) > maxN {
		// Deterministic thinning: stride sampling preserves class mix of
		// the capped set.
		stride := (len(modelData) + maxN - 1) / maxN
		thinned := make([][]float64, 0, maxN)
		for i := 0; i < len(modelData); i += stride {
			thinned = append(thinned, modelData[i])
		}
		modelData = thinned
	}
	start := time.Now()
	ag, err := baseline.TrainAgglo(modelData, baseline.AggloConfig{K: k, MaxN: maxN})
	if err != nil {
		return DetectorResult{}, fmt.Errorf("eval: agglo: %w", err)
	}
	det, err := anomaly.Fit(anomaly.AggloQuantizer{Model: ag}, enc.TrainX, enc.TrainLabels, dcfg)
	if err != nil {
		return DetectorResult{}, fmt.Errorf("eval: fit agglo detector: %w", err)
	}
	trainSecs := time.Since(start).Seconds()
	res, err := evaluate(fmt.Sprintf("agglo-%d", k), det, enc, trainSecs)
	if err != nil {
		return DetectorResult{}, err
	}
	res.Cells = ag.K()
	return res, nil
}

// RunVolumeThreshold evaluates the naive count-threshold floor detector.
func RunVolumeThreshold(enc *Encoded) (DetectorResult, error) {
	// Feature 19 of the numeric block is the 2-second connection count
	// (see kdd.NumericFeatureNames).
	const countFeature = 19
	var normals [][]float64
	for i, l := range enc.TrainLabels {
		if l == "normal" {
			normals = append(normals, enc.TrainX[i])
		}
	}
	start := time.Now()
	vt, err := baseline.TrainVolumeThreshold(normals, countFeature, 0.99)
	if err != nil {
		return DetectorResult{}, fmt.Errorf("eval: volume threshold: %w", err)
	}
	trainSecs := time.Since(start).Seconds()

	var outcome metrics.BinaryOutcome
	scores := make([]float64, len(enc.TestX))
	truth := make([]bool, len(enc.TestX))
	cstart := time.Now()
	for i, x := range enc.TestX {
		truth[i] = enc.TestLabels[i] != "normal"
		outcome.AddBinary(truth[i], vt.IsAttack(x))
		scores[i] = vt.Score(x)
	}
	elapsed := time.Since(cstart).Seconds()
	curve, err := metrics.ROC(scores, truth)
	if err != nil {
		return DetectorResult{}, fmt.Errorf("eval: roc for volume threshold: %w", err)
	}
	res := DetectorResult{
		Name:          "volume-threshold",
		Accuracy:      outcome.Accuracy(),
		DetectionRate: outcome.DetectionRate(),
		FPR:           outcome.FalsePositiveRate(),
		Precision:     outcome.Precision(),
		F1:            outcome.F1(),
		AUC:           metrics.AUC(curve),
		Cells:         1,
		TrainSeconds:  trainSecs,
	}
	if elapsed > 0 {
		res.ClassifyPerSec = float64(len(enc.TestX)) / elapsed
	}
	return res, nil
}
