package anomaly

import (
	"errors"
	"math"
	"strconv"
	"testing"
)

// gridQuantizer is a deterministic test quantizer: cell is the integer
// floor of the first coordinate, QE is the distance from the cell center.
type gridQuantizer struct{}

func (gridQuantizer) Quantize(x []float64) (string, float64) {
	cell := int(math.Floor(x[0]))
	center := float64(cell) + 0.5
	return strconv.Itoa(cell), math.Abs(x[0] - center)
}

// fitTestDetector builds a detector over two cells: cell 0 normal,
// cell 1 attack-dominated.
func fitTestDetector(t *testing.T, cfg Config) *Detector {
	t.Helper()
	var data [][]float64
	var labels []string
	for i := 0; i < 50; i++ {
		data = append(data, []float64{0.4 + 0.004*float64(i)}) // cell 0, qe <= ~0.1
		labels = append(labels, "normal")
	}
	for i := 0; i < 40; i++ {
		data = append(data, []float64{1.4 + 0.005*float64(i)}) // cell 1
		labels = append(labels, "neptune")
	}
	for i := 0; i < 10; i++ {
		data = append(data, []float64{1.45})
		labels = append(labels, "normal") // minority in cell 1
	}
	d, err := Fit(gridQuantizer{}, data, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFitAndClassifyMajorityVote(t *testing.T) {
	d := fitTestDetector(t, Config{})
	// Cell 0 is normal.
	p := d.Classify([]float64{0.5})
	if p.Label != "normal" || p.Attack {
		t.Errorf("cell 0 prediction = %+v", p)
	}
	// Cell 1 is neptune-majority.
	p = d.Classify([]float64{1.5})
	if p.Label != "neptune" || !p.Attack {
		t.Errorf("cell 1 prediction = %+v", p)
	}
	if d.Cells() != 2 {
		t.Errorf("Cells = %d", d.Cells())
	}
}

func TestNoveltyByQE(t *testing.T) {
	d := fitTestDetector(t, Config{})
	// Deep inside cell 0 but far from center: qe 0.49 vs thresholds ~0.1.
	p := d.Classify([]float64{0.01})
	if !p.Novel || !p.Attack {
		t.Errorf("high-QE record not flagged: %+v", p)
	}
	if p.Label != "normal" {
		t.Errorf("novelty should preserve cell label, got %q", p.Label)
	}
}

func TestUnseenCellIsNovel(t *testing.T) {
	d := fitTestDetector(t, Config{})
	// Far from the unseen cell's center: QE 0.4 exceeds the global
	// threshold (~0.15 with the default margin) => novel attack.
	p := d.Classify([]float64{7.9})
	if !p.Novel || !p.Attack {
		t.Errorf("unseen cell not flagged: %+v", p)
	}
	if p.Label != NovelLabel {
		t.Errorf("unseen cell label = %q, want %q", p.Label, NovelLabel)
	}
	if p.Score <= 0.5 {
		t.Errorf("unseen cell score = %v, want > 0.5", p.Score)
	}
	// At the unseen cell's exact center (QE 0) the record is judged by
	// the global threshold only: interpolated units inside known regions
	// must not auto-flag.
	pc := d.Classify([]float64{7.5})
	if pc.Attack || pc.Novel {
		t.Errorf("unseen-cell center flagged: %+v", pc)
	}
	if pc.Label != "normal" {
		t.Errorf("unseen-cell center label = %q, want normal", pc.Label)
	}
}

func TestScoreMonotoneInAttackFraction(t *testing.T) {
	d := fitTestDetector(t, Config{})
	normalScore := d.Classify([]float64{0.5}).Score
	attackScore := d.Classify([]float64{1.5}).Score
	if attackScore <= normalScore {
		t.Errorf("attack cell score %v <= normal cell score %v", attackScore, normalScore)
	}
}

func TestScoreMonotoneInQE(t *testing.T) {
	d := fitTestDetector(t, Config{})
	near := d.Classify([]float64{0.5}).Score // at center
	far := d.Classify([]float64{0.02}).Score // far from center, same cell
	if far <= near {
		t.Errorf("far score %v <= near score %v", far, near)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(gridQuantizer{}, nil, nil, Config{}); !errors.Is(err, ErrNoData) {
		t.Errorf("no-data err = %v", err)
	}
	if _, err := Fit(gridQuantizer{}, [][]float64{{1}}, []string{"a", "b"}, Config{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Fit(gridQuantizer{}, [][]float64{{1}}, []string{"a"}, Config{QEQuantile: 2}); err == nil {
		t.Error("bad quantile accepted")
	}
	if _, err := Fit(gridQuantizer{}, [][]float64{{1}}, []string{"a"}, Config{MinCellCount: -1}); err == nil {
		t.Error("negative MinCellCount accepted")
	}
	if _, err := Fit(gridQuantizer{}, [][]float64{{1}}, []string{"a"}, Config{NoveltyMargin: 0.5}); err == nil {
		t.Error("sub-unit NoveltyMargin accepted")
	}
}

func TestNoveltyMarginWidensThresholds(t *testing.T) {
	tight := fitTestDetector(t, Config{NoveltyMargin: 1.0})
	wide := fitTestDetector(t, Config{NoveltyMargin: 3.0})
	// A moderately off-center record: flagged by the tight detector,
	// tolerated by the wide one. Cell-0 QEs reach ~0.1, so QE 0.2 sits
	// between 1x and 3x the quantile.
	x := []float64{0.3}
	if !tight.Classify(x).Novel {
		t.Error("tight detector did not flag moderate outlier")
	}
	if wide.Classify(x).Novel {
		t.Error("wide detector flagged moderate outlier")
	}
}

func TestCustomNormalLabel(t *testing.T) {
	data := [][]float64{{0.5}, {0.5}, {1.5}}
	labels := []string{"benign", "benign", "evil"}
	d, err := Fit(gridQuantizer{}, data, labels, Config{NormalLabel: "benign", MinCellCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := d.Classify([]float64{0.5}); p.Attack {
		t.Errorf("benign cell flagged: %+v", p)
	}
	if p := d.Classify([]float64{1.5}); !p.Attack {
		t.Errorf("evil cell not flagged: %+v", p)
	}
}

func TestSparseCellFallsBackToGlobalThreshold(t *testing.T) {
	// Cell 2 has a single record; with MinCellCount 5 it must use the
	// global threshold rather than its own degenerate one.
	var data [][]float64
	var labels []string
	for i := 0; i < 20; i++ {
		data = append(data, []float64{0.3 + 0.02*float64(i)})
		labels = append(labels, "normal")
	}
	data = append(data, []float64{2.5})
	labels = append(labels, "normal")
	d, err := Fit(gridQuantizer{}, data, labels, Config{MinCellCount: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A record close to the sparse cell's center must not be flagged
	// merely because the cell had one training point.
	p := d.Classify([]float64{2.45})
	if p.Novel {
		t.Errorf("sparse-cell record flagged as novel: %+v", p)
	}
}

func TestCellLabelAndDistribution(t *testing.T) {
	d := fitTestDetector(t, Config{})
	if info, ok := d.cells["0"]; !ok || info.label != "normal" {
		t.Errorf("cell 0 = %+v, %v, want majority label normal", info, ok)
	}
	if _, ok := d.cells["999"]; ok {
		t.Error("unknown cell reported as known")
	}
	dist := d.LabelDistribution()
	if dist["normal"] != 1 || dist["neptune"] != 1 {
		t.Errorf("LabelDistribution = %v", dist)
	}
}

func TestNaNGuard(t *testing.T) {
	in := []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), 2}
	out := NaNGuard(in)
	want := []float64{1, 0, 0, 0, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("NaNGuard[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Input untouched.
	if !math.IsNaN(in[1]) {
		t.Error("NaNGuard mutated input")
	}
}

func TestNoveltyRatioBounds(t *testing.T) {
	if r := noveltyRatio(0, 1); r != 0 {
		t.Errorf("ratio(0,1) = %v", r)
	}
	if r := noveltyRatio(1, 1); math.Abs(r-0.5) > 1e-12 {
		t.Errorf("ratio(1,1) = %v, want 0.5", r)
	}
	if r := noveltyRatio(1e12, 1); r <= 0.99 || r > 1 {
		t.Errorf("ratio(huge,1) = %v, want ~1", r)
	}
	if r := noveltyRatio(1, 0); r != 1 {
		t.Errorf("ratio(1,0) = %v, want 1", r)
	}
	if r := noveltyRatio(0, 0); r != 0 {
		t.Errorf("ratio(0,0) = %v, want 0", r)
	}
}

func TestDegenerateAllIdenticalTraining(t *testing.T) {
	data := make([][]float64, 20)
	labels := make([]string, 20)
	for i := range data {
		data[i] = []float64{0.5} // exactly at cell center: QE 0
		labels[i] = "normal"
	}
	d, err := Fit(gridQuantizer{}, data, labels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The training point itself must not be flagged.
	if p := d.Classify([]float64{0.5}); p.Novel {
		t.Errorf("exact training point flagged: %+v", p)
	}
	// A clearly different point in the same cell should be flagged.
	if p := d.Classify([]float64{0.05}); !p.Novel {
		t.Errorf("perturbed point not flagged on degenerate detector: %+v", p)
	}
}

// batchGridQuantizer is gridQuantizer with a batch path, so Fit's
// batched quantize pass is exercised directly.
type batchGridQuantizer struct{ gridQuantizer }

func (q batchGridQuantizer) QuantizeBatch(flat []float64, n, d int, out []CellQE) {
	for i := 0; i < n; i++ {
		out[i].Cell, out[i].QE = q.Quantize(flat[i*d : (i+1)*d])
	}
}

// TestFitBatchedScratchReshaped is the regression test for the pooled
// fit-scratch shape hazard: a Fit over wide rows in small chunks leaves
// pool entries whose flat arena is large but whose cell buffer is
// small; a following Fit over narrow rows in full-size chunks must not
// panic reslicing the stale cell buffer, and both fits must match the
// per-row quantize path exactly.
func TestFitBatchedScratchReshaped(t *testing.T) {
	mkData := func(n, d int, span float64) ([][]float64, []string) {
		data := make([][]float64, n)
		labels := make([]string, n)
		for i := range data {
			row := make([]float64, d)
			row[0] = span * float64(i) / float64(n)
			data[i] = row
			if i%3 == 0 {
				labels[i] = "neptune"
			} else {
				labels[i] = "normal"
			}
		}
		return data, labels
	}
	// Wide rows, many workers → small chunks with a wide flat arena.
	wideData, wideLabels := mkData(64, 118, 4)
	if _, err := Fit(batchGridQuantizer{}, wideData, wideLabels, Config{Parallelism: 8}); err != nil {
		t.Fatal(err)
	}
	// Narrow rows, serial → full classifyChunk-sized chunks; the pooled
	// cell buffers from the wide fit must be regrown.
	narrowData, narrowLabels := mkData(4096, 2, 8)
	got, err := Fit(batchGridQuantizer{}, narrowData, narrowLabels, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fit(gridQuantizer{}, narrowData, narrowLabels, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cells() != want.Cells() || got.globalQE != want.globalQE {
		t.Fatalf("batched fit differs from per-row fit: cells %d/%d, global %v/%v",
			got.Cells(), want.Cells(), got.globalQE, want.globalQE)
	}
	for _, x := range [][]float64{{0.4, 0}, {1.7, 0}, {7.2, 0}} {
		a, b := got.Classify(x), want.Classify(x)
		if a != b {
			t.Fatalf("verdicts differ for %v: %+v vs %+v", x, a, b)
		}
	}
}
