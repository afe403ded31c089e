package ghsom

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ghsom/internal/anomaly"
	"ghsom/internal/metrics"
)

// quickPipelineConfig keeps model training fast for tests.
func quickPipelineConfig() PipelineConfig {
	cfg := DefaultPipelineConfig()
	cfg.Model.EpochsPerGrowth = 3
	cfg.Model.FineTuneEpochs = 3
	cfg.Model.MaxGrowIters = 6
	cfg.Model.MaxDepth = 3
	cfg.TrainCapPerLabel = 800
	return cfg
}

// testRecords caches a small generated dataset across tests.
func testRecords(t *testing.T) []Record {
	t.Helper()
	if testing.Short() {
		t.Skip("pipeline integration test; skipped with -short")
	}
	recs, err := GenerateTraffic(SmallScenario(11))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestTrainPipelineAndDetect(t *testing.T) {
	recs := testRecords(t)
	pipe, err := TrainPipeline(recs, quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Model() == nil || pipe.Detector() == nil {
		t.Fatal("pipeline missing components")
	}

	// The pipeline must achieve reasonable quality on its own training
	// distribution: binary accuracy well above the majority-class rate.
	var outcome metrics.BinaryOutcome
	preds, err := pipe.DetectAll(recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		outcome.AddBinary(recs[i].IsAttack(), preds[i].Attack)
	}
	if outcome.Accuracy() < 0.85 {
		t.Errorf("in-sample binary accuracy = %v, want >= 0.85 (%v)", outcome.Accuracy(), outcome)
	}
	if outcome.DetectionRate() < 0.85 {
		t.Errorf("in-sample detection rate = %v (%v)", outcome.DetectionRate(), outcome)
	}
}

func TestTrainPipelineEmpty(t *testing.T) {
	if _, err := TrainPipeline(nil, DefaultPipelineConfig()); !errors.Is(err, ErrEmptyTrainingSet) {
		t.Errorf("empty training err = %v", err)
	}
}

func TestPipelineScoreOrdering(t *testing.T) {
	recs := testRecords(t)
	pipe, err := TrainPipeline(recs, quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Mean score of attack records must exceed mean score of normals.
	var attackSum, normalSum float64
	var attackN, normalN int
	for i := range recs {
		v, err := pipe.Detect(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		s := v.Score
		if recs[i].IsAttack() {
			attackSum += s
			attackN++
		} else {
			normalSum += s
			normalN++
		}
	}
	if attackSum/float64(attackN) <= normalSum/float64(normalN) {
		t.Errorf("mean attack score %v <= mean normal score %v",
			attackSum/float64(attackN), normalSum/float64(normalN))
	}
}

func TestPipelineSaveLoadRoundTrip(t *testing.T) {
	recs := testRecords(t)
	pipe, err := TrainPipeline(recs, quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical verdicts on a sample of records.
	for i := 0; i < len(recs); i += 97 {
		p1, err := pipe.Detect(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		p2, err := loaded.Detect(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Fatalf("record %d verdict differs after round trip: %+v vs %+v", i, p1, p2)
		}
	}
}

func TestLoadPipelineRejectsGarbage(t *testing.T) {
	if _, err := LoadPipeline(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadPipeline(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestPipelineStream(t *testing.T) {
	recs := testRecords(t)
	pipe, err := TrainPipeline(recs, quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := pipe.Stream(anomaly.StreamConfig{WindowSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs[:500] {
		x, err := pipe.Encode(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		stream.Observe(x)
	}
	if stream.Total() != 500 {
		t.Errorf("stream Total = %d", stream.Total())
	}
}

func TestPipelineExplain(t *testing.T) {
	recs := testRecords(t)
	pipe, err := TrainPipeline(recs, quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Find a detected attack and explain it.
	for i := range recs {
		if !recs[i].IsAttack() {
			continue
		}
		v, err := pipe.Detect(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !v.Attack {
			continue
		}
		contribs, err := pipe.Explain(&recs[i], 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(contribs) == 0 || len(contribs) > 5 {
			t.Fatalf("got %d contributions", len(contribs))
		}
		// Ordered by decreasing magnitude, names non-empty, deltas
		// consistent.
		prev := mathInf()
		for _, c := range contribs {
			if c.Feature == "" {
				t.Error("empty feature name")
			}
			m := abs(c.Delta)
			if m > prev+1e-12 {
				t.Error("contributions not ordered by magnitude")
			}
			prev = m
			if abs(c.Value-c.Prototype-c.Delta) > 1e-9 {
				t.Error("delta inconsistent with value/prototype")
			}
		}
		return
	}
	t.Fatal("no detected attack to explain")
}

func mathInf() float64 { return 1e308 }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestCategoryAliases(t *testing.T) {
	if CategoryOf("neptune") != DoS {
		t.Error("alias CategoryOf broken")
	}
	if Normal.String() != "normal" {
		t.Error("alias constants broken")
	}
}

func TestScenarioConstructors(t *testing.T) {
	for name, cfg := range map[string]GeneratorConfig{
		"kdd99": KDD99Scenario(1),
		"small": SmallScenario(1),
		"hard":  HardScenario(1),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s scenario invalid: %v", name, err)
		}
	}
	if KDD99Scenario(1).NormalSessions <= SmallScenario(1).NormalSessions {
		t.Error("kdd99 scenario should be larger than small")
	}
	if HardScenario(1).Noise <= KDD99Scenario(1).Noise {
		t.Error("hard scenario should be noisier")
	}
}

func TestPipelineConfigAccessorAndEncodeErrors(t *testing.T) {
	recs := testRecords(t)
	cfg := quickPipelineConfig()
	pipe, err := TrainPipeline(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := pipe.Config(); got.TrainCapPerLabel != cfg.TrainCapPerLabel {
		t.Errorf("Config() = %+v", got)
	}
	// Un-encodable record (unknown flag) must error through Detect and
	// Explain.
	bad := recs[0]
	bad.Flag = "BOGUS"
	if _, err := pipe.Detect(&bad); err == nil {
		t.Error("Detect accepted bad record")
	}
	if _, err := pipe.Explain(&bad, 3); err == nil {
		t.Error("Explain accepted bad record")
	}
	if _, err := pipe.DetectAll([]Record{recs[0], bad}); err == nil {
		t.Error("DetectAll accepted bad record")
	}
}

func TestTrainModelDirect(t *testing.T) {
	data := [][]float64{{0, 0}, {0.1, 0}, {10, 10}, {10.1, 10}}
	cfg := DefaultModelConfig()
	cfg.MinMapData = 1
	cfg.EpochsPerGrowth = 2
	cfg.FineTuneEpochs = 2
	cfg.MaxGrowIters = 2
	m, err := TrainModel(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Root().Map.Dim(); d != 2 {
		t.Errorf("Dim = %d", d)
	}
}

// TestParsePrecision pins the deprecated precision shim: the names that
// mean f64 parse, the removed reduced-precision rungs are rejected, and
// every precision reports f64.
func TestParsePrecision(t *testing.T) {
	for _, s := range []string{"", "auto", "f64", " F64 ", "AUTO"} {
		p, err := ParsePrecision(s)
		if err != nil {
			t.Errorf("ParsePrecision(%q): %v", s, err)
		}
		if p.String() != "f64" {
			t.Errorf("ParsePrecision(%q) = %v, want f64", s, p)
		}
	}
	for _, s := range []string{"f32", "i8", "f16", "bogus"} {
		if _, err := ParsePrecision(s); err == nil {
			t.Errorf("ParsePrecision(%q) accepted", s)
		}
	}
	var pipe Pipeline
	pipe.SetBMUPrecision(Precision{})
	if got := pipe.BMUPrecision().String(); got != "f64" {
		t.Errorf("BMUPrecision() = %q, want f64", got)
	}
}
