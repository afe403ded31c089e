package eval

import (
	"fmt"

	"ghsom/internal/anomaly"
	"ghsom/internal/core"
	"ghsom/internal/metrics"
)

// fullRouteQuantizer is the A3 ablation quantizer: hierarchical routing
// over all units, including data-less interpolated ones (the naive
// Route), instead of the effective-codebook RouteTrained the production
// detector uses.
type fullRouteQuantizer struct {
	model *core.Compiled
}

func (q fullRouteQuantizer) Quantize(x []float64) (string, float64) {
	p := q.model.Route(x)
	return p.Key().String(), p.QE
}

// RoutingAblation runs A3: the same trained GHSOM evaluated with
// effective-codebook routing vs naive all-units routing. The naive
// variant strands test records on units with no label evidence, which is
// the failure mode RouteTrained exists to prevent.
func RoutingAblation(enc *Encoded, seed int64) ([]DetectorResult, error) {
	mcfg := DefaultModelConfig(seed)
	model, err := core.TrainMatrix(enc.TrainMat, capIdxForModel(enc, seed), mcfg)
	if err != nil {
		return nil, fmt.Errorf("eval: routing ablation train: %w", err)
	}
	compiled := core.Compile(model)
	var out []DetectorResult
	variants := []struct {
		name string
		q    anomaly.Quantizer
	}{
		{"ghsom-route-trained", anomaly.NewGHSOMQuantizer(compiled)},
		{"ghsom-route-all-units", fullRouteQuantizer{model: compiled}},
	}
	for _, v := range variants {
		det, err := anomaly.Fit(v.q, enc.TrainX, enc.TrainLabels, anomaly.Config{})
		if err != nil {
			return nil, fmt.Errorf("eval: routing ablation fit %s: %w", v.name, err)
		}
		res, err := evaluate(v.name, det, enc, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// MarginRow is one point of the A4 novelty-margin sweep.
type MarginRow struct {
	// Margin is the threshold multiplier.
	Margin float64
	// DetectionRate, FPR, Accuracy, MCC are the test-split binary
	// measures at that margin.
	DetectionRate, FPR, Accuracy, MCC float64
}

// MarginSweep runs A4: the novelty-margin sensitivity sweep on a single
// trained model — the knob that trades unseen-attack sensitivity against
// false alarms under distribution shift.
func MarginSweep(enc *Encoded, margins []float64, seed int64) ([]MarginRow, error) {
	mcfg := DefaultModelConfig(seed)
	model, err := core.TrainMatrix(enc.TrainMat, capIdxForModel(enc, seed), mcfg)
	if err != nil {
		return nil, fmt.Errorf("eval: margin sweep train: %w", err)
	}
	q := anomaly.NewGHSOMQuantizer(core.Compile(model))
	var rows []MarginRow
	for _, margin := range margins {
		det, err := anomaly.Fit(q, enc.TrainX, enc.TrainLabels,
			anomaly.Config{NoveltyMargin: margin})
		if err != nil {
			return nil, fmt.Errorf("eval: margin %v: %w", margin, err)
		}
		var outcome metrics.BinaryOutcome
		for i, x := range enc.TestX {
			p := det.Classify(x)
			outcome.AddBinary(enc.TestLabels[i] != "normal", p.Attack)
		}
		rows = append(rows, MarginRow{
			Margin:        margin,
			DetectionRate: outcome.DetectionRate(),
			FPR:           outcome.FalsePositiveRate(),
			Accuracy:      outcome.Accuracy(),
			MCC:           metrics.MCC(outcome),
		})
	}
	return rows, nil
}
