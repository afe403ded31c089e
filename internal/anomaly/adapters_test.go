package anomaly

import (
	"math/rand"
	"strconv"
	"testing"

	"ghsom/internal/baseline"
	"ghsom/internal/core"
	"ghsom/internal/som"
	"ghsom/internal/vecmath"
)

// tinyClusters returns two tight, well-separated blobs.
func tinyClusters(seed int64, nPer int) ([][]float64, []string) {
	rng := rand.New(rand.NewSource(seed))
	var data [][]float64
	var labels []string
	for i := 0; i < nPer; i++ {
		data = append(data, []float64{rng.NormFloat64() * 0.2, rng.NormFloat64() * 0.2})
		labels = append(labels, "normal")
	}
	for i := 0; i < nPer; i++ {
		data = append(data, []float64{10 + rng.NormFloat64()*0.2, 10 + rng.NormFloat64()*0.2})
		labels = append(labels, "neptune")
	}
	return data, labels
}

func TestGHSOMQuantizerEndToEnd(t *testing.T) {
	data, labels := tinyClusters(1, 60)
	cfg := core.DefaultConfig()
	cfg.EpochsPerGrowth = 3
	cfg.FineTuneEpochs = 3
	cfg.MaxGrowIters = 3
	cfg.MinMapData = 10
	model, err := core.Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := NewGHSOMQuantizer(core.Compile(model))
	det, err := Fit(q, data, labels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p := det.Classify([]float64{0, 0}); p.Attack {
		t.Errorf("normal center flagged: %+v", p)
	}
	if p := det.Classify([]float64{10, 10}); !p.Attack || p.Label != "neptune" {
		t.Errorf("attack center missed: %+v", p)
	}
	// CellWeight reconstructs the routed prototype.
	cell, _ := q.Quantize([]float64{0, 0})
	w := q.CellWeight(cell)
	if w == nil || len(w) != 2 {
		t.Fatalf("CellWeight(%q) = %v", cell, w)
	}
	if q.CellWeight("not-a-cell") != nil {
		t.Error("malformed cell should yield nil weight")
	}
	if q.CellWeight("9999/0") != nil {
		t.Error("unknown node should yield nil weight")
	}
	// Explain works through the adapter.
	if contribs := det.Explain([]float64{0, 5}, 1); len(contribs) != 1 {
		t.Errorf("Explain through GHSOM adapter = %v", contribs)
	}
}

func TestSOMQuantizerEndToEnd(t *testing.T) {
	data, labels := tinyClusters(2, 60)
	rng := rand.New(rand.NewSource(2))
	m, err := som.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InitSample(data, rng); err != nil {
		t.Fatal(err)
	}
	mat, err := vecmath.MatrixFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	tc := som.DefaultTrainConfig(rng)
	if _, err := m.TrainOnlineView(mat.View(), tc); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, m.Units())
	for _, b := range m.AssignView(mat.View()) {
		counts[b]++
	}
	det, err := Fit(SOMQuantizer{Map: m, UnitCounts: counts}, data, labels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p := det.Classify([]float64{10, 10}); !p.Attack {
		t.Errorf("SOM detector missed attack center: %+v", p)
	}
	// Restricted quantizer never lands on a data-less unit.
	q := SOMQuantizer{Map: m, UnitCounts: counts}
	for i := 0; i < 50; i++ {
		x := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		cell, _ := q.Quantize(x)
		u, err := strconv.Atoi(cell)
		if err != nil {
			t.Fatal(err)
		}
		if counts[u] == 0 {
			t.Fatalf("restricted SOM quantizer landed on empty unit %d", u)
		}
	}
	// Without counts it falls back to plain BMU.
	plain := SOMQuantizer{Map: m}
	if cell, _ := plain.Quantize([]float64{0, 0}); cell == "" {
		t.Error("plain quantizer returned empty cell")
	}
}

func TestKMeansQuantizerEndToEnd(t *testing.T) {
	data, labels := tinyClusters(3, 60)
	rng := rand.New(rand.NewSource(3))
	km, err := baseline.TrainKMeans(data, baseline.KMeansConfig{K: 2, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	det, err := Fit(KMeansQuantizer{Model: km}, data, labels, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p := det.Classify([]float64{10, 10}); !p.Attack {
		t.Errorf("kmeans detector missed attack center: %+v", p)
	}
	if p := det.Classify([]float64{0, 0}); p.Attack {
		t.Errorf("kmeans detector flagged normal center: %+v", p)
	}
}
