package ghsom

import (
	"bytes"
	"strings"
	"testing"
)

// batchEvalRecords builds a mixed normal/attack evaluation batch from a
// second trafficgen seed (so it differs from the training trace) and
// injects records with services outside the training vocabulary, which
// must fall into the encoder's "other" bucket on every path.
func batchEvalRecords(t *testing.T) []Record {
	t.Helper()
	recs, err := GenerateTraffic(SmallScenario(23))
	if err != nil {
		t.Fatal(err)
	}
	recs = recs[:1500]
	for i := 0; i < len(recs); i += 13 {
		recs[i].Service = "unseen_service_xyz"
	}
	return recs
}

// TestDetectBatchMatchesDetectAndDetectAll is the batch-dataplane
// equivalence property: per-record Detect, DetectAll, and DetectBatch
// (with and without a reused output slice) must produce byte-identical
// predictions on mixed traffic with unseen services, at every
// Parallelism setting.
func TestDetectBatchMatchesDetectAndDetectAll(t *testing.T) {
	train := testRecords(t)
	pipe, err := TrainPipeline(train, quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	eval := batchEvalRecords(t)

	want := make([]Prediction, len(eval))
	for i := range eval {
		p, err := pipe.Detect(&eval[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}

	var reused []Prediction
	for _, par := range []int{1, 2, 8, 0} {
		pipe.SetParallelism(par)
		all, err := pipe.DetectAll(eval)
		if err != nil {
			t.Fatal(err)
		}
		reused, err = pipe.DetectBatch(eval, reused)
		if err != nil {
			t.Fatal(err)
		}
		for i := range eval {
			if all[i] != want[i] {
				t.Fatalf("par=%d record %d: DetectAll %+v, Detect %+v", par, i, all[i], want[i])
			}
			if reused[i] != want[i] {
				t.Fatalf("par=%d record %d: DetectBatch %+v, Detect %+v", par, i, reused[i], want[i])
			}
		}
	}
}

// TestDetectBatchReusesOutputSlice verifies the documented buffer-reuse
// contract: an output slice with sufficient capacity is written in place,
// not reallocated.
func TestDetectBatchReusesOutputSlice(t *testing.T) {
	train := testRecords(t)
	pipe, err := TrainPipeline(train, quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	eval := batchEvalRecords(t)[:300]
	out := make([]Prediction, 0, len(eval))
	got, err := pipe.DetectBatch(eval, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(eval) {
		t.Fatalf("got %d predictions for %d records", len(got), len(eval))
	}
	if &got[0] != &out[:1][0] {
		t.Error("DetectBatch reallocated an output slice with sufficient capacity")
	}
}

// TestDetectBatchFirstErrorSemantics verifies batch failure reports the
// lowest-index bad record, like a serial loop.
func TestDetectBatchFirstErrorSemantics(t *testing.T) {
	train := testRecords(t)
	pipe, err := TrainPipeline(train, quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	eval := batchEvalRecords(t)[:800]
	for _, i := range []int{700, 3, 500} {
		eval[i].Flag = "BOGUS"
	}
	for _, par := range []int{1, 4} {
		pipe.SetParallelism(par)
		_, err := pipe.DetectBatch(eval, nil)
		if err == nil || !strings.Contains(err.Error(), "record 3") {
			t.Errorf("par=%d: err = %v, want lowest bad record 3", par, err)
		}
	}
}

// TestPipelineSaveLoadPersistsConfig verifies the envelope round-trips
// the pipeline-level training configuration (TrainCapPerLabel, Seed,
// Parallelism, LogTransform) along with the model and detector configs.
func TestPipelineSaveLoadPersistsConfig(t *testing.T) {
	train := testRecords(t)
	cfg := quickPipelineConfig()
	cfg.TrainCapPerLabel = 456
	cfg.Seed = 77
	cfg.Parallelism = 3
	pipe, err := TrainPipeline(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipeline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Config()
	if got.TrainCapPerLabel != 456 || got.Seed != 77 || got.Parallelism != 3 {
		t.Errorf("loaded config = cap %d seed %d par %d, want 456/77/3",
			got.TrainCapPerLabel, got.Seed, got.Parallelism)
	}
	if got.LogTransform != cfg.LogTransform {
		t.Errorf("loaded LogTransform = %v", got.LogTransform)
	}
	if got.Model.Tau1 != cfg.Model.Tau1 || got.Model.Tau2 != cfg.Model.Tau2 {
		t.Errorf("loaded model config = %+v", got.Model)
	}
	if got.Detector.QEQuantile != pipe.Config().Detector.QEQuantile &&
		got.Detector.QEQuantile != 0.99 {
		t.Errorf("loaded detector config = %+v", got.Detector)
	}
}
