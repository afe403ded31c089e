package metrics

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestConfusionBasic(t *testing.T) {
	c := NewConfusion()
	c.Add("normal", "normal")
	c.Add("normal", "dos")
	c.Add("dos", "dos")
	c.Add("dos", "dos")
	c.Add("probe", "normal")

	if c.total != 5 {
		t.Errorf("total = %d", c.total)
	}
	if got := c.Count("normal", "dos"); got != 1 {
		t.Errorf("Count(normal,dos) = %d", got)
	}
	if got := c.Recall("dos"); got != 1 {
		t.Errorf("Recall(dos) = %v", got)
	}
	if got := c.Recall("normal"); got != 0.5 {
		t.Errorf("Recall(normal) = %v", got)
	}
	if got := c.TruthTotal("probe"); got != 1 {
		t.Errorf("TruthTotal(probe) = %d", got)
	}
}

func TestConfusionUnknownLabels(t *testing.T) {
	c := NewConfusion()
	c.Add("a", "a")
	if c.Count("zzz", "a") != 0 || c.Count("a", "zzz") != 0 {
		t.Error("unknown labels should count 0")
	}
	if !math.IsNaN(c.Recall("zzz")) {
		t.Error("Recall of unseen truth should be NaN")
	}
}

func TestConfusionMarginalsProperty(t *testing.T) {
	// Truth marginals and predicted-label columns both sum to the total.
	c := NewConfusion()
	pairs := [][2]string{{"a", "b"}, {"b", "b"}, {"c", "a"}, {"a", "a"}, {"c", "c"}, {"b", "a"}}
	for _, p := range pairs {
		c.Add(p[0], p[1])
	}
	var tSum, pSum int
	for _, l := range c.Labels() {
		tSum += c.TruthTotal(l)
		for _, p := range c.Labels() {
			pSum += c.Count(p, l)
		}
	}
	if tSum != c.total || pSum != c.total {
		t.Errorf("marginals %d/%d != total %d", tSum, pSum, c.total)
	}
}

func TestConfusionString(t *testing.T) {
	c := NewConfusion()
	c.Add("dos", "normal")
	s := c.String()
	if !strings.Contains(s, "dos") || !strings.Contains(s, "normal") {
		t.Errorf("String missing labels: %q", s)
	}
}

func TestConfusionSeedLabelsStable(t *testing.T) {
	c := NewConfusion("normal", "dos", "probe")
	labels := c.Labels()
	if labels[0] != "normal" || labels[1] != "dos" || labels[2] != "probe" {
		t.Errorf("seed label order not preserved: %v", labels)
	}
}

func TestBinaryOutcome(t *testing.T) {
	var o BinaryOutcome
	o.AddBinary(true, true)   // TP
	o.AddBinary(true, true)   // TP
	o.AddBinary(true, false)  // FN
	o.AddBinary(false, true)  // FP
	o.AddBinary(false, false) // TN
	o.AddBinary(false, false) // TN

	if o.TP != 2 || o.FN != 1 || o.FP != 1 || o.TN != 2 {
		t.Fatalf("cells = %+v", o)
	}
	if got := o.DetectionRate(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("DR = %v", got)
	}
	if got := o.FalsePositiveRate(); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("FPR = %v", got)
	}
	if got := o.Precision(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Precision = %v", got)
	}
	if got := o.Accuracy(); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Errorf("Accuracy = %v", got)
	}
	if !strings.Contains(o.String(), "dr=") {
		t.Error("String malformed")
	}
}

func TestBinaryOutcomeDegenerate(t *testing.T) {
	var o BinaryOutcome
	if !math.IsNaN(o.DetectionRate()) || !math.IsNaN(o.FalsePositiveRate()) ||
		!math.IsNaN(o.Precision()) || !math.IsNaN(o.Accuracy()) || !math.IsNaN(o.F1()) {
		t.Error("empty outcome should be all-NaN")
	}
}

func TestROCPerfectDetector(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	truth := []bool{true, true, false, false}
	curve, err := ROC(scores, truth)
	if err != nil {
		t.Fatal(err)
	}
	auc := AUC(curve)
	if math.Abs(auc-1) > 1e-12 {
		t.Errorf("perfect detector AUC = %v, want 1", auc)
	}
	// Curve starts at (0,0) and ends at (1,1).
	first, last := curve[0], curve[len(curve)-1]
	if first.FPR != 0 || first.TPR != 0 {
		t.Errorf("curve start = %+v", first)
	}
	if last.FPR != 1 || last.TPR != 1 {
		t.Errorf("curve end = %+v", last)
	}
}

func TestROCRandomDetector(t *testing.T) {
	// Alternating scores with alternating truth: AUC ~ 0.5.
	var scores []float64
	var truth []bool
	for i := 0; i < 100; i++ {
		scores = append(scores, float64(i))
		truth = append(truth, i%2 == 0)
	}
	curve, err := ROC(scores, truth)
	if err != nil {
		t.Fatal(err)
	}
	auc := AUC(curve)
	if math.Abs(auc-0.5) > 0.05 {
		t.Errorf("random detector AUC = %v, want ~0.5", auc)
	}
}

func TestROCInvertedDetector(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	truth := []bool{true, true, false, false}
	curve, err := ROC(scores, truth)
	if err != nil {
		t.Fatal(err)
	}
	if auc := AUC(curve); math.Abs(auc) > 1e-12 {
		t.Errorf("inverted detector AUC = %v, want 0", auc)
	}
}

func TestROCTiesHandled(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	truth := []bool{true, false, true, false}
	curve, err := ROC(scores, truth)
	if err != nil {
		t.Fatal(err)
	}
	// All ties: single step from (0,0) to (1,1); AUC 0.5.
	if auc := AUC(curve); math.Abs(auc-0.5) > 1e-12 {
		t.Errorf("all-ties AUC = %v", auc)
	}
	if len(curve) != 2 {
		t.Errorf("all-ties curve has %d points, want 2", len(curve))
	}
}

func TestROCErrors(t *testing.T) {
	if _, err := ROC([]float64{1}, []bool{true, false}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("length mismatch err = %v", err)
	}
	if _, err := ROC([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Error("single-class ROC accepted")
	}
}

func TestROCMonotonicity(t *testing.T) {
	scores := []float64{5, 4, 4, 3, 2, 2, 1, 0.5, 0.2, 0.1}
	truth := []bool{true, true, false, true, false, true, false, false, true, false}
	curve, err := ROC(scores, truth)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR < curve[i-1].FPR || curve[i].TPR < curve[i-1].TPR {
			t.Fatalf("curve not monotone at %d: %+v -> %+v", i, curve[i-1], curve[i])
		}
	}
}

func TestAUCDegenerate(t *testing.T) {
	if !math.IsNaN(AUC(nil)) || !math.IsNaN(AUC([]ROCPoint{{}})) {
		t.Error("AUC of short curve should be NaN")
	}
}

func TestMCC(t *testing.T) {
	tests := []struct {
		name string
		o    BinaryOutcome
		want float64
		tol  float64
	}{
		{"perfect", BinaryOutcome{TP: 50, TN: 50}, 1, 0},
		{"inverted", BinaryOutcome{FP: 50, FN: 50}, -1, 0},
		{"balanced random", BinaryOutcome{TP: 25, FP: 25, TN: 25, FN: 25}, 0, 0},
		{"empty", BinaryOutcome{}, 0, 0},
		{"one marginal empty", BinaryOutcome{TP: 10, FN: 5}, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MCC(tt.o); math.Abs(got-tt.want) > tt.tol {
				t.Errorf("MCC = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMCCKnownValue(t *testing.T) {
	o := BinaryOutcome{TP: 90, FN: 10, FP: 5, TN: 95}
	got := MCC(o)
	// Direct computation.
	want := (90.0*95 - 5.0*10) / math.Sqrt(95*100*100*105)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MCC = %v, want %v", got, want)
	}
	if got < 0.8 {
		t.Errorf("strong detector MCC = %v, want high", got)
	}
}
