package eval

import (
	"strings"
	"testing"

	"ghsom/internal/anomaly"
	"ghsom/internal/core"
	"ghsom/internal/trafficgen"
)

// fastModel shrinks the GHSOM budget so the suite stays quick.
func fastModel(seed int64) core.Config {
	c := DefaultModelConfig(seed)
	c.EpochsPerGrowth = 3
	c.FineTuneEpochs = 3
	c.MaxGrowIters = 6
	c.MaxDepth = 3
	return c
}

// sharedEncoded builds one small encoded dataset reused across tests.
func sharedEncoded(t *testing.T) *Encoded {
	t.Helper()
	if testing.Short() {
		t.Skip("integration experiment; skipped with -short")
	}
	ds, err := MakeDataset(trafficgen.Small(1), 0.7, 42)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Encode(ds)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestMakeDatasetAndEncode(t *testing.T) {
	ds, err := MakeDataset(trafficgen.Small(1), 0.7, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Train) == 0 || len(ds.Test) == 0 {
		t.Fatalf("split sizes: %d/%d", len(ds.Train), len(ds.Test))
	}
	frac := float64(len(ds.Train)) / float64(len(ds.Train)+len(ds.Test))
	if frac < 0.65 || frac > 0.75 {
		t.Errorf("train fraction = %v, want ~0.7", frac)
	}
	enc, err := Encode(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.TrainX) != len(ds.Train) || len(enc.TestX) != len(ds.Test) {
		t.Error("encoded sizes mismatch")
	}
	if len(enc.TrainLabels) != len(enc.TrainX) {
		t.Error("label count mismatch")
	}
	// All vectors share the encoder dimension and live in [0,1].
	dim := enc.Encoder.Dim()
	for _, x := range enc.TrainX[:50] {
		if len(x) != dim {
			t.Fatal("train vector dim mismatch")
		}
		for _, v := range x {
			if v < 0 || v > 1 {
				t.Fatal("train vector outside [0,1]")
			}
		}
	}
}

func TestComposition(t *testing.T) {
	ds, err := MakeDataset(trafficgen.Small(2), 0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := Composition(ds)
	if len(rows) < 10 {
		t.Fatalf("composition has %d rows", len(rows))
	}
	// normal first (category order), with the largest train count.
	if rows[0].Label != "normal" {
		t.Errorf("first row = %q, want normal", rows[0].Label)
	}
	var train, test int
	for _, r := range rows {
		train += r.Train
		test += r.Test
	}
	if train != len(ds.Train) || test != len(ds.Test) {
		t.Errorf("composition totals %d/%d, want %d/%d", train, test, len(ds.Train), len(ds.Test))
	}
	s := FormatComposition(rows)
	if !strings.Contains(s, "TOTAL") || !strings.Contains(s, "normal") {
		t.Error("FormatComposition malformed")
	}
}

func TestRunGHSOMQuality(t *testing.T) {
	enc := sharedEncoded(t)
	res, model, det, err := RunGHSOM(enc, fastModel(1), anomaly.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || det == nil {
		t.Fatal("missing model or detector")
	}
	if res.Accuracy < 0.8 {
		t.Errorf("GHSOM test accuracy = %v, want >= 0.8", res.Accuracy)
	}
	if res.DetectionRate < 0.8 {
		t.Errorf("GHSOM detection rate = %v", res.DetectionRate)
	}
	if res.FPR > 0.2 {
		t.Errorf("GHSOM FPR = %v", res.FPR)
	}
	if res.AUC < 0.85 {
		t.Errorf("GHSOM AUC = %v", res.AUC)
	}
	if res.Cells < 4 {
		t.Errorf("GHSOM cells = %d", res.Cells)
	}
	if res.ClassifyPerSec <= 0 {
		t.Error("no throughput recorded")
	}
}

func TestComparisonShape(t *testing.T) {
	// The key qualitative claim (T2): GHSOM beats the naive volume
	// threshold and is at least competitive with the flat SOM and k-means
	// on AUC.
	enc := sharedEncoded(t)
	results, err := Comparison(enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("comparison has %d rows", len(results))
	}
	byName := map[string]DetectorResult{}
	for _, r := range results {
		byName[strings.SplitN(r.Name, "(", 2)[0]] = r
	}
	g := byName["ghsom"]
	vt := byName["volume-threshold"]
	if g.AUC <= vt.AUC {
		t.Errorf("GHSOM AUC %v <= volume threshold AUC %v", g.AUC, vt.AUC)
	}
	if g.Accuracy <= vt.Accuracy {
		t.Errorf("GHSOM accuracy %v <= volume threshold accuracy %v", g.Accuracy, vt.Accuracy)
	}
	out := FormatComparison(results)
	if !strings.Contains(out, "ghsom") || !strings.Contains(out, "kmeans-144") || !strings.Contains(out, "agglo-144") {
		t.Errorf("FormatComparison malformed:\n%s", out)
	}
}

func TestRunAggloQuality(t *testing.T) {
	enc := sharedEncoded(t)
	res, err := RunAgglo(enc, 64, 1500, 1, anomaly.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 64 {
		t.Errorf("cells = %d", res.Cells)
	}
	if res.Accuracy < 0.85 {
		t.Errorf("agglo accuracy = %v", res.Accuracy)
	}
}

func TestPerClass(t *testing.T) {
	enc := sharedEncoded(t)
	_, _, det, err := RunGHSOM(enc, fastModel(1), anomaly.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := PerClass(enc, det)
	total := 0
	for _, l := range res.Confusion.Labels() {
		total += res.Confusion.TruthTotal(l)
	}
	if total != len(enc.TestX) {
		t.Errorf("confusion total %d, want %d", total, len(enc.TestX))
	}
	// DoS must be detected nearly perfectly on the synthetic mix; this is
	// the canonical KDD shape.
	if dr := res.Recall["dos"]; dr < 0.9 {
		t.Errorf("DoS recall = %v, want >= 0.9", dr)
	}
	if _, ok := res.Recall["probe"]; !ok {
		t.Error("probe recall missing")
	}
	out := FormatPerClass(res)
	if !strings.Contains(out, "dos") || !strings.Contains(out, "confusion") {
		t.Errorf("FormatPerClass malformed:\n%s", out)
	}
}

func TestTauSweepStructureShape(t *testing.T) {
	// T4's qualitative claim: smaller tau2 => at least as many maps/units
	// (deeper hierarchies), smaller tau1 => at least as many units on the
	// root map.
	enc := sharedEncoded(t)
	rows, err := TauSweep(enc, []float64{0.8, 0.4}, []float64{0.1, 0.02}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("sweep has %d rows", len(rows))
	}
	get := func(t1, t2 float64) TauSweepRow {
		for _, r := range rows {
			if r.Tau1 == t1 && r.Tau2 == t2 {
				return r
			}
		}
		t.Fatalf("row (%v, %v) missing", t1, t2)
		return TauSweepRow{}
	}
	// Depth grows (or stays) as tau2 shrinks at fixed tau1.
	if get(0.8, 0.02).Maps < get(0.8, 0.1).Maps {
		t.Errorf("smaller tau2 produced fewer maps: %d vs %d",
			get(0.8, 0.02).Maps, get(0.8, 0.1).Maps)
	}
	// Units grow (or stay) as tau1 shrinks at fixed tau2.
	if get(0.4, 0.1).Units < get(0.8, 0.1).Units {
		t.Errorf("smaller tau1 produced fewer units: %d vs %d",
			get(0.4, 0.1).Units, get(0.8, 0.1).Units)
	}
	out := FormatTauSweep(rows)
	if !strings.Contains(out, "tau1") {
		t.Error("FormatTauSweep malformed")
	}
}

func TestConvergenceTrace(t *testing.T) {
	enc := sharedEncoded(t)
	trace, model, err := ConvergenceTrace(enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if trace == nil || len(trace.Events) == 0 {
		t.Fatal("empty trace")
	}
	events := trace.ForNode(model.Root().ID)
	if len(events) < 1 {
		t.Fatal("no root events")
	}
	// F1 claim: the final mean-unit MQE does not exceed the initial one.
	first, last := events[0], events[len(events)-1]
	if last.MeanUnitMQE > first.MeanUnitMQE*1.05 {
		t.Errorf("MQE rose over growth: %v -> %v", first.MeanUnitMQE, last.MeanUnitMQE)
	}
	// F3 claim: units are non-decreasing.
	prev := 0
	for _, e := range events {
		if e.Rows*e.Cols < prev {
			t.Error("unit count decreased during growth")
		}
		prev = e.Rows * e.Cols
	}
	out := FormatTrace(trace, model.Root().ID)
	if !strings.Contains(out, "F1") || !strings.Contains(out, "F3") {
		t.Error("FormatTrace malformed")
	}
}

func TestROCCurves(t *testing.T) {
	enc := sharedEncoded(t)
	results, err := ROCCurves(enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d curves", len(results))
	}
	for _, r := range results {
		if r.AUC < 0.7 {
			t.Errorf("%s AUC = %v, implausibly low", r.Name, r.AUC)
		}
		if len(r.Curve) < 3 {
			t.Errorf("%s curve has %d points", r.Name, len(r.Curve))
		}
	}
	out := FormatROC(results)
	if !strings.Contains(out, "auc") || !strings.Contains(out, "tpr@1%fpr") {
		t.Error("FormatROC malformed")
	}
}

func TestScalability(t *testing.T) {
	enc := sharedEncoded(t)
	rows, err := Scalability(enc, []int{500, 1500}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].N != 500 || rows[1].N != 1500 {
		t.Errorf("sizes = %d/%d", rows[0].N, rows[1].N)
	}
	for _, r := range rows {
		if r.TrainSeconds <= 0 || r.ClassifyPerSec <= 0 || r.Units < 4 {
			t.Errorf("implausible row %+v", r)
		}
	}
	out := FormatScalability(rows)
	if !strings.Contains(out, "train-n") {
		t.Error("FormatScalability malformed")
	}
}

func TestNoveltyHoldout(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment; skipped with -short")
	}
	res, err := NoveltyHoldout(5, 1, "smurf", "satan")
	if err != nil {
		t.Fatal(err)
	}
	if res.SeenDR < 0.7 {
		t.Errorf("seen detection rate = %v", res.SeenDR)
	}
	// The point of A1: unseen attacks are still substantially detected.
	if res.UnseenDR < 0.5 {
		t.Errorf("unseen detection rate = %v, novelty path ineffective", res.UnseenDR)
	}
	if res.FPR > 0.25 {
		t.Errorf("holdout FPR = %v", res.FPR)
	}
	out := FormatHoldout(res)
	if !strings.Contains(out, "UNSEEN") {
		t.Error("FormatHoldout malformed")
	}
}

func TestNoveltyCorrectedTestSet(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment; skipped with -short")
	}
	res, err := NoveltyCorrectedTestSet(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Held) != 9 {
		t.Errorf("held %d labels, want 9", len(res.Held))
	}
	if res.SeenDR < 0.7 {
		t.Errorf("seen detection rate = %v", res.SeenDR)
	}
	// Test-set-only attacks must be substantially detected despite never
	// appearing in training (the corrected-test-set claim).
	if res.UnseenDR < 0.4 {
		t.Errorf("novel-attack detection rate = %v", res.UnseenDR)
	}
	if res.FPR > 0.3 {
		t.Errorf("FPR = %v", res.FPR)
	}
}

func TestRoutingAblation(t *testing.T) {
	enc := sharedEncoded(t)
	results, err := RoutingAblation(enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	trained, all := results[0], results[1]
	if trained.Name != "ghsom-route-trained" || all.Name != "ghsom-route-all-units" {
		t.Errorf("names = %s/%s", trained.Name, all.Name)
	}
	// The claim behind RouteTrained: effective-codebook routing does not
	// do worse than naive routing (on most seeds it does strictly
	// better because records no longer strand on data-less units).
	if trained.Accuracy < all.Accuracy-0.02 {
		t.Errorf("route-trained accuracy %v well below all-units %v", trained.Accuracy, all.Accuracy)
	}
}

func TestMarginSweep(t *testing.T) {
	enc := sharedEncoded(t)
	rows, err := MarginSweep(enc, []float64{1.0, 2.0, 3.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// FPR must be non-increasing in the margin (wider thresholds flag
	// strictly fewer records).
	for i := 1; i < len(rows); i++ {
		if rows[i].FPR > rows[i-1].FPR+1e-9 {
			t.Errorf("FPR rose with margin: %v -> %v", rows[i-1].FPR, rows[i].FPR)
		}
		if rows[i].DetectionRate > rows[i-1].DetectionRate+1e-9 {
			t.Errorf("DR rose with margin: %v -> %v", rows[i-1].DetectionRate, rows[i].DetectionRate)
		}
	}
	out := FormatMarginSweep(rows)
	if !strings.Contains(out, "margin") || !strings.Contains(out, "mcc") {
		t.Error("FormatMarginSweep malformed")
	}
}

func TestBatchVsOnline(t *testing.T) {
	enc := sharedEncoded(t)
	results, err := BatchVsOnline(enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Name != "ghsom-online" || results[1].Name != "ghsom-batch" {
		t.Errorf("names = %s/%s", results[0].Name, results[1].Name)
	}
	for _, r := range results {
		if r.Accuracy < 0.75 {
			t.Errorf("%s accuracy = %v", r.Name, r.Accuracy)
		}
	}
}
