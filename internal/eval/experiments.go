package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ghsom/internal/anomaly"
	"ghsom/internal/core"
	"ghsom/internal/kdd"
	"ghsom/internal/metrics"
	"ghsom/internal/trafficgen"
)

// DefaultModelConfig returns the GHSOM configuration used by the
// experiment suite (the paper's operating point).
func DefaultModelConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// Comparison runs the T2 headline table: GHSOM vs flat SOM vs k-means vs
// the volume-threshold floor, all on the same encoded split with matched
// codebook budgets (SOM 12x12 = 144 units, k-means k=144).
func Comparison(enc *Encoded, seed int64) ([]DetectorResult, error) {
	dcfg := anomaly.Config{}
	var out []DetectorResult

	gres, _, _, err := RunGHSOM(enc, DefaultModelConfig(seed), dcfg)
	if err != nil {
		return nil, err
	}
	out = append(out, gres)

	sres, err := RunSOM(enc, 12, 12, 20, seed, dcfg)
	if err != nil {
		return nil, err
	}
	out = append(out, sres)

	kres, err := RunKMeans(enc, 144, seed, dcfg)
	if err != nil {
		return nil, err
	}
	out = append(out, kres)

	ares, err := RunAgglo(enc, 144, 3000, seed, dcfg)
	if err != nil {
		return nil, err
	}
	out = append(out, ares)

	vres, err := RunVolumeThreshold(enc)
	if err != nil {
		return nil, err
	}
	out = append(out, vres)
	return out, nil
}

// PerClassResult is the T3 output: the category-level confusion matrix
// and per-category recall of the GHSOM detector.
type PerClassResult struct {
	// Confusion is truth-category vs predicted-category (predictions map
	// through the predicted label's category; novel predictions count as
	// attacks of category "unknown").
	Confusion *metrics.Confusion
	// Recall maps category name to attack-detection recall within the
	// category (binary attack/normal verdict, not exact category match).
	Recall map[string]float64
	// Binary is the overall binary outcome.
	Binary metrics.BinaryOutcome
}

// PerClass runs T3 for a fitted detector on the encoded test split.
func PerClass(enc *Encoded, det *anomaly.Detector) PerClassResult {
	conf := metrics.NewConfusion("normal", "dos", "probe", "r2l", "u2r")
	detected := make(map[string]int)
	totals := make(map[string]int)
	var binary metrics.BinaryOutcome
	for i, x := range enc.TestX {
		p := det.Classify(x)
		truthCat := kdd.CategoryOf(enc.TestLabels[i]).String()
		predCat := kdd.CategoryOf(p.Label).String()
		if p.Label == anomaly.NovelLabel {
			predCat = "unknown"
		}
		// The binary verdict overrides the label for normal-labeled cells
		// flagged by novelty.
		if p.Attack && predCat == "normal" {
			predCat = "unknown"
		}
		conf.Add(truthCat, predCat)
		truthAttack := enc.TestLabels[i] != "normal"
		binary.AddBinary(truthAttack, p.Attack)
		if truthAttack {
			totals[truthCat]++
			if p.Attack {
				detected[truthCat]++
			}
		}
	}
	recall := make(map[string]float64, len(totals))
	for cat, n := range totals {
		recall[cat] = float64(detected[cat]) / float64(n)
	}
	return PerClassResult{Confusion: conf, Recall: recall, Binary: binary}
}

// TauSweepRow is one cell of the T4 structure-vs-parameters table.
type TauSweepRow struct {
	// Tau1 and Tau2 are the GHSOM breadth/depth parameters.
	Tau1, Tau2 float64
	// Maps, Units, Leaves, Depth summarize the trained structure.
	Maps, Units, Leaves, Depth int
	// Accuracy, DetectionRate, FPR are test-split binary measures.
	Accuracy, DetectionRate, FPR float64
	// TrainSeconds is wall-clock training time.
	TrainSeconds float64
}

// TauSweep runs T4: a grid of (tau1, tau2) values, reporting structure
// and quality for each.
func TauSweep(enc *Encoded, tau1s, tau2s []float64, seed int64) ([]TauSweepRow, error) {
	var rows []TauSweepRow
	for _, t1 := range tau1s {
		for _, t2 := range tau2s {
			mcfg := DefaultModelConfig(seed)
			mcfg.Tau1 = t1
			mcfg.Tau2 = t2
			res, model, _, err := RunGHSOM(enc, mcfg, anomaly.Config{})
			if err != nil {
				return nil, fmt.Errorf("eval: tau sweep (%v, %v): %w", t1, t2, err)
			}
			st := model.Stats()
			rows = append(rows, TauSweepRow{
				Tau1: t1, Tau2: t2,
				Maps: st.Maps, Units: st.Units, Leaves: st.LeafUnits, Depth: st.MaxDepth,
				Accuracy: res.Accuracy, DetectionRate: res.DetectionRate, FPR: res.FPR,
				TrainSeconds: res.TrainSeconds,
			})
		}
	}
	return rows, nil
}

// ConvergenceTrace runs F1/F3: trains a GHSOM with tracing enabled and
// returns the growth trace (per-iteration MQE and map size) plus the
// model.
func ConvergenceTrace(enc *Encoded, seed int64) (*core.GrowthTrace, *core.GHSOM, error) {
	mcfg := DefaultModelConfig(seed)
	mcfg.CollectTrace = true
	model, err := core.TrainMatrix(enc.TrainMat, capIdxForModel(enc, seed), mcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("eval: convergence trace: %w", err)
	}
	return model.Trace(), model, nil
}

// ROCResult is one curve of the F2 figure.
type ROCResult struct {
	// Name identifies the detector.
	Name string
	// Curve is the ROC curve on the test split.
	Curve []metrics.ROCPoint
	// AUC is its area.
	AUC float64
}

// ROCCurves runs F2: score-threshold ROC curves for GHSOM and the flat
// SOM at a matched unit budget.
func ROCCurves(enc *Encoded, seed int64) ([]ROCResult, error) {
	dcfg := anomaly.Config{}
	truth := make([]bool, len(enc.TestX))
	for i, l := range enc.TestLabels {
		truth[i] = l != "normal"
	}
	scoreCurve := func(name string, det *anomaly.Detector) (ROCResult, error) {
		scores := make([]float64, len(enc.TestX))
		for i, x := range enc.TestX {
			scores[i] = det.Classify(x).Score
		}
		curve, err := metrics.ROC(scores, truth)
		if err != nil {
			return ROCResult{}, fmt.Errorf("eval: roc %s: %w", name, err)
		}
		return ROCResult{Name: name, Curve: curve, AUC: metrics.AUC(curve)}, nil
	}

	_, model, gdet, err := RunGHSOM(enc, DefaultModelConfig(seed), dcfg)
	if err != nil {
		return nil, err
	}
	gres, err := scoreCurve("ghsom", gdet)
	if err != nil {
		return nil, err
	}
	// Match the SOM's unit budget to the GHSOM's leaf count.
	leaves := model.Stats().LeafUnits
	side := 2
	for side*side < leaves {
		side++
	}
	sdet, err := somDetector(enc, side, side, 20, seed, dcfg)
	if err != nil {
		return nil, err
	}
	scurve, err := scoreCurve(fmt.Sprintf("som-%dx%d", side, side), sdet)
	if err != nil {
		return nil, err
	}
	return []ROCResult{gres, scurve}, nil
}

// ScaleRow is one point of the F4 scalability figure.
type ScaleRow struct {
	// N is the training-set size.
	N int
	// TrainSeconds is GHSOM wall-clock training time.
	TrainSeconds float64
	// Units is the trained structure size.
	Units int
	// ClassifyPerSec is the throughput of the shipped routing path
	// (compiled effective-codebook descent) on held-out records.
	ClassifyPerSec float64
}

// Scalability runs F4: training time and classify throughput across
// training-set sizes. The training rows are drawn from a deterministic
// shuffle so every size sees the full label mix (the stratified split
// stores rows grouped by label, so a raw prefix would be skewed).
func Scalability(enc *Encoded, sizes []int, seed int64) ([]ScaleRow, error) {
	order := make([]int, len(enc.TrainX))
	for i := range order {
		order[i] = i
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	var rows []ScaleRow
	for _, n := range sizes {
		if n > len(order) {
			n = len(order)
		}
		mcfg := DefaultModelConfig(seed)
		start := time.Now()
		model, err := core.TrainMatrix(enc.TrainMat, order[:n], mcfg)
		if err != nil {
			return nil, fmt.Errorf("eval: scalability n=%d: %w", n, err)
		}
		trainSecs := time.Since(start).Seconds()

		probe := enc.TestX
		if len(probe) > 5000 {
			probe = probe[:5000]
		}
		compiled := core.Compile(model)
		cstart := time.Now()
		for _, x := range probe {
			compiled.RouteTrained(x)
		}
		elapsed := time.Since(cstart).Seconds()
		row := ScaleRow{N: n, TrainSeconds: trainSecs, Units: model.Stats().Units}
		if elapsed > 0 {
			row.ClassifyPerSec = float64(len(probe)) / elapsed
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// HoldoutResult is the A1 novelty-ablation output.
type HoldoutResult struct {
	// Held lists the attack labels excluded from training.
	Held []string
	// SeenDR is the detection rate on attacks whose labels were trained.
	SeenDR float64
	// UnseenDR is the detection rate on the held-out attack labels —
	// detectable only through the novelty path.
	UnseenDR float64
	// UnseenNovelRate is the fraction of held-out attacks flagged
	// specifically by the novelty mechanism.
	UnseenNovelRate float64
	// FPR is the false positive rate on normal test traffic.
	FPR float64
}

// NoveltyHoldout runs A1: train with a set of attacks removed, test on
// the full mix, and separate detection on seen vs unseen attack labels.
func NoveltyHoldout(genSeed, seed int64, held ...string) (HoldoutResult, error) {
	if len(held) == 0 {
		held = []string{"smurf", "satan", "warezclient"}
	}
	full := trafficgen.Small(genSeed)
	trainGen := trafficgen.WithoutAttacks(full, held...)
	testGen := full
	testGen.Seed = genSeed + 1
	return holdoutEval(trainGen, testGen, held, seed)
}

// NoveltyCorrectedTestSet runs the "corrected test set" variant of A1,
// mirroring how the real KDD-99 evaluation works: the training trace
// carries only the 22 training-set attacks, while the test trace adds the
// nine test-set-only attacks (mailbomb, apache2, mscan, saint, snmpguess,
// snmpgetattack, httptunnel, xterm, ps). Detection on those attacks can
// come only from the novelty path and from their resemblance to trained
// attack families.
func NoveltyCorrectedTestSet(genSeed, seed int64) (HoldoutResult, error) {
	trainGen := trafficgen.Small(genSeed)
	testGen := trafficgen.WithNovelAttacks(trafficgen.Small(genSeed+1), 1)
	held := make([]string, 0, 9)
	for label := range trafficgen.NovelAttackEpisodes(1) {
		held = append(held, label)
	}
	sort.Strings(held)
	return holdoutEval(trainGen, testGen, held, seed)
}

// holdoutEval trains on trainGen, tests on testGen, and splits attack
// detection by membership in held.
func holdoutEval(trainGen, testGen trafficgen.Config, held []string, seed int64) (HoldoutResult, error) {
	trainRecs, err := trafficgen.Generate(trainGen)
	if err != nil {
		return HoldoutResult{}, fmt.Errorf("eval: holdout train gen: %w", err)
	}
	testRecs, err := trafficgen.Generate(testGen)
	if err != nil {
		return HoldoutResult{}, fmt.Errorf("eval: holdout test gen: %w", err)
	}
	enc, err := Encode(Dataset{Train: trainRecs, Test: testRecs})
	if err != nil {
		return HoldoutResult{}, err
	}
	_, _, det, err := RunGHSOM(enc, DefaultModelConfig(seed), anomaly.Config{})
	if err != nil {
		return HoldoutResult{}, err
	}
	heldSet := make(map[string]bool, len(held))
	for _, h := range held {
		heldSet[h] = true
	}
	var seenTot, seenHit, unseenTot, unseenHit, unseenNovel, normTot, normFP int
	for i, x := range enc.TestX {
		p := det.Classify(x)
		label := enc.TestLabels[i]
		switch {
		case label == "normal":
			normTot++
			if p.Attack {
				normFP++
			}
		case heldSet[label]:
			unseenTot++
			if p.Attack {
				unseenHit++
			}
			if p.Novel {
				unseenNovel++
			}
		default:
			seenTot++
			if p.Attack {
				seenHit++
			}
		}
	}
	res := HoldoutResult{Held: held}
	if seenTot > 0 {
		res.SeenDR = float64(seenHit) / float64(seenTot)
	}
	if unseenTot > 0 {
		res.UnseenDR = float64(unseenHit) / float64(unseenTot)
		res.UnseenNovelRate = float64(unseenNovel) / float64(unseenTot)
	}
	if normTot > 0 {
		res.FPR = float64(normFP) / float64(normTot)
	}
	return res, nil
}

// BatchVsOnline runs A2: identical GHSOM configurations trained with the
// online rule and the batch rule.
func BatchVsOnline(enc *Encoded, seed int64) ([]DetectorResult, error) {
	var out []DetectorResult
	for _, batch := range []bool{false, true} {
		mcfg := DefaultModelConfig(seed)
		mcfg.Batch = batch
		res, _, _, err := RunGHSOM(enc, mcfg, anomaly.Config{})
		if err != nil {
			return nil, fmt.Errorf("eval: batch=%v: %w", batch, err)
		}
		if batch {
			res.Name = "ghsom-batch"
		} else {
			res.Name = "ghsom-online"
		}
		out = append(out, res)
	}
	return out, nil
}
