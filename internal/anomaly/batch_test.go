package anomaly

import (
	"math"
	"math/rand"
	"testing"

	"ghsom/internal/core"
	"ghsom/internal/som"
	"ghsom/internal/vecmath"
)

// flatten packs rows into one row-major array.
func flatten(rows [][]float64) ([]float64, int) {
	if len(rows) == 0 {
		return nil, 0
	}
	d := len(rows[0])
	flat := make([]float64, 0, len(rows)*d)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	return flat, d
}

// gridBatchQuantizer wraps gridQuantizer with a batch path, to exercise
// ClassifyBatchAt's BatchQuantizer branch against the per-row fallback.
type gridBatchQuantizer struct{ gridQuantizer }

func (g gridBatchQuantizer) QuantizeBatch(flat []float64, n, d int, out []CellQE) {
	for i := 0; i < n; i++ {
		out[i].Cell, out[i].QE = g.Quantize(flat[i*d : (i+1)*d])
	}
}

var _ BatchQuantizer = gridBatchQuantizer{}

// TestClassifyBatchMatchesClassify verifies both ClassifyBatchAt branches
// (batch quantizer and per-row fallback) are byte-identical to Classify,
// at every worker count and across the chunking boundary.
func TestClassifyBatchMatchesClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var data [][]float64
	var labels []string
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 3
		data = append(data, []float64{x})
		if x >= 1 && x < 2 {
			labels = append(labels, "neptune")
		} else {
			labels = append(labels, "normal")
		}
	}
	for name, q := range map[string]Quantizer{
		"per-row": gridQuantizer{},
		"batch":   gridBatchQuantizer{},
	} {
		det, err := Fit(q, data, labels, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// n spans several classify chunks so the chunked path is exercised.
		n := classifyChunk*2 + 57
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.Float64() * 6}
		}
		flat, d := flatten(rows)
		want := make([]Prediction, n)
		for i := range rows {
			want[i] = det.Classify(rows[i])
		}
		for _, p := range []int{1, 2, 8, 0} {
			out := make([]Prediction, n)
			if err := det.ClassifyBatchAt(flat, n, d, out, p); err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("%s p=%d row %d: batch %+v, want %+v", name, p, i, out[i], want[i])
				}
			}
		}
	}
}

func TestClassifyBatchValidation(t *testing.T) {
	det := fitTestDetector(t, Config{})
	flat := make([]float64, 4)
	out := make([]Prediction, 4)
	if err := det.ClassifyBatchAt(flat, 4, 0, out, 1); err == nil {
		t.Error("dim 0 accepted")
	}
	if err := det.ClassifyBatchAt(flat, 5, 1, out, 1); err == nil {
		t.Error("short flat accepted")
	}
	if err := det.ClassifyBatchAt(flat, 4, 1, out[:2], 1); err == nil {
		t.Error("short out accepted")
	}
	var unfitted Detector
	if err := unfitted.ClassifyBatchAt(flat, 4, 1, out, 1); err == nil {
		t.Error("unfitted detector accepted")
	}
}

// TestGHSOMQuantizeBatchMatchesQuantize verifies the GHSOM adapter's batch
// path (with cached cell names) and per-row Quantize both equal the
// pointer-tree reference walk.
func TestGHSOMQuantizeBatchMatchesQuantize(t *testing.T) {
	data, _ := tinyClusters(5, 60)
	cfg := core.DefaultConfig()
	cfg.EpochsPerGrowth = 3
	cfg.FineTuneEpochs = 3
	cfg.MaxGrowIters = 3
	cfg.MinMapData = 10
	model, err := core.Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached := NewGHSOMQuantizer(core.Compile(model))
	rng := rand.New(rand.NewSource(6))
	n := 150
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 8, rng.NormFloat64() * 8}
	}
	flat, d := flatten(rows)
	out := make([]CellQE, n)
	cached.QuantizeBatch(flat, n, d, out)
	for i := range rows {
		ref := model.RouteTrained(rows[i])
		wantCell, wantQE := ref.Key().String(), ref.QE
		if out[i].Cell != wantCell || out[i].QE != wantQE {
			t.Fatalf("row %d: batch (%q, %v), tree (%q, %v)",
				i, out[i].Cell, out[i].QE, wantCell, wantQE)
		}
		gotCell, gotQE := cached.Quantize(rows[i])
		if gotCell != wantCell || gotQE != wantQE {
			t.Fatalf("row %d: Quantize (%q, %v), tree (%q, %v)", i, gotCell, gotQE, wantCell, wantQE)
		}
	}
	// Dimension-mismatch rows get the sentinel cell on both paths.
	badCell, badQE := cached.Quantize([]float64{1, 2, 3})
	if badCell != "-1/-1" || !math.IsNaN(badQE) {
		t.Errorf("dim mismatch = (%q, %v), want (-1/-1, NaN)", badCell, badQE)
	}
	// A truncated flat batch (fewer than n complete rows) must not panic:
	// complete rows quantize normally, the missing tail gets sentinels.
	short := flat[:5*d-1]
	shortOut := make([]CellQE, 7)
	cached.QuantizeBatch(short, 7, d, shortOut)
	for i := 0; i < 4; i++ {
		if shortOut[i] != out[i] {
			t.Fatalf("truncated batch row %d: %+v, want %+v", i, shortOut[i], out[i])
		}
	}
	for i := 4; i < 7; i++ {
		if shortOut[i].Cell != "-1/-1" || !math.IsNaN(shortOut[i].QE) {
			t.Fatalf("truncated batch tail row %d = %+v, want sentinel", i, shortOut[i])
		}
	}
	// Degenerate dims must not panic either.
	cached.QuantizeBatch(nil, 3, 0, shortOut[:3])
	cached.QuantizeBatch(flat, 2, d+1, shortOut[:2])
	for i, o := range shortOut[:3] {
		if o.Cell != "-1/-1" || !math.IsNaN(o.QE) {
			t.Fatalf("mismatched-width batch row %d = %+v, want sentinel", i, o)
		}
	}
}

// TestSOMQuantizeBatchMatchesQuantize verifies the flat-SOM adapter's
// batch path (AssignFlat) and its masked/truncated fallbacks equal
// per-row Quantize.
func TestSOMQuantizeBatchMatchesQuantize(t *testing.T) {
	data, _ := tinyClusters(9, 40)
	m, err := som.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InitSample(data, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	mat, err := vecmath.MatrixFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	counts := m.AssignView(mat.View())
	unitCounts := make([]int, m.Units())
	for _, u := range counts {
		unitCounts[u]++
	}
	rng := rand.New(rand.NewSource(10))
	n := 120
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 6, rng.NormFloat64() * 6}
	}
	flat, d := flatten(rows)
	for name, q := range map[string]SOMQuantizer{
		"unmasked": {Map: m},
		"masked":   {Map: m, UnitCounts: unitCounts},
	} {
		out := make([]CellQE, n)
		q.QuantizeBatch(flat, n, d, out)
		for i := range rows {
			wantCell, wantQE := q.Quantize(rows[i])
			if out[i].Cell != wantCell || out[i].QE != wantQE {
				t.Fatalf("%s row %d: batch (%q, %v), per-row (%q, %v)",
					name, i, out[i].Cell, out[i].QE, wantCell, wantQE)
			}
		}
		// Truncated flat: sentinel tail, no panic.
		shortOut := make([]CellQE, 4)
		q.QuantizeBatch(flat[:2*d+1], 4, d, shortOut)
		for i := 2; i < 4; i++ {
			if shortOut[i].Cell != "" || !math.IsNaN(shortOut[i].QE) {
				t.Fatalf("%s truncated tail row %d = %+v, want sentinel", name, i, shortOut[i])
			}
		}
	}
}
