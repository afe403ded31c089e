package ghsom

import (
	"bytes"
	"encoding/json"
	"testing"
)

// scalingParSweep is the worker-bound ladder the bit-identity suite runs
// against the P=1 baseline: an even split, an uneven split (3 does not
// divide the chunk counts), oversubscription (8 workers on any host),
// and the GOMAXPROCS default.
var scalingParSweep = []int{2, 3, 8, 0}

// TestDataplanesByteIdenticalAcrossParallelism is the scaling engine's
// regression suite: every parallel dataplane — TrainPipeline, the
// compiled RouteTrainedFlat, DetectBatch, and DetectColumnar — must
// produce byte-identical serialized models and verdicts at every worker
// bound, and the compiled placements must equal the per-row tree walk.
// It runs on two models: the production-shape pipeline model, and a
// wide-map one (small Tau1) whose widest map has at least 64 units, so
// the blocked GEMM descent and its settle margin route a codebook of the
// size production seeds grow. The scheduler's determinism contract
// makes this exact, not approximate: chunk layout is a pure function of
// (n, grain), never P, and partial results fold in ascending chunk
// order, so P=1 executes the identical chunked computation tree.
func TestDataplanesByteIdenticalAcrossParallelism(t *testing.T) {
	records, err := GenerateTraffic(SmallScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	records = records[:1200]
	t.Run("default", func(t *testing.T) {
		checkDataplanesAcrossParallelism(t, records, benchParallelConfig, 0)
	})
	t.Run("wide-map", func(t *testing.T) {
		wide := func(p int) PipelineConfig {
			cfg := benchParallelConfig(p)
			cfg.Model.Tau1 = 0.3
			return cfg
		}
		checkDataplanesAcrossParallelism(t, records, wide, 64)
	})
}

// checkDataplanesAcrossParallelism trains a pipeline from cfgFor(P) at
// P=1 and at every scalingParSweep bound and requires byte-identical
// models, placements and verdicts, with the P=1 placements equal to the
// tree walk. The model's widest map must have at least minWidest units.
func checkDataplanesAcrossParallelism(t *testing.T, records []Record, cfgFor func(p int) PipelineConfig, minWidest int) {
	n := len(records)

	// P=1 baseline: trained bytes, routing placements, and verdicts.
	basePipe, err := TrainPipeline(records, cfgFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if w := basePipe.Model().Stats().LargestMapUnits; w < minWidest {
		t.Fatalf("widest map has %d units, want >= %d", w, minWidest)
	}
	serialize := func(p *Pipeline) []byte {
		t.Helper()
		prev := p.Config().Parallelism
		p.SetParallelism(0) // normalize the persisted execution knob
		defer p.SetParallelism(prev)
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	baseBytes := serialize(basePipe)

	model, compiled := basePipe.Model(), basePipe.Compiled()
	flat := make([]float64, 0, n*compiled.Dim())
	for i := range records {
		x, err := basePipe.Encode(&records[i])
		if err != nil {
			t.Fatal(err)
		}
		flat = append(flat, x...)
	}
	dim := compiled.Dim()
	baseCompiled := make([]Placement, n)
	if err := compiled.RouteTrainedFlat(flat, n, baseCompiled, 1); err != nil {
		t.Fatal(err)
	}
	for i := range baseCompiled {
		if tree := model.RouteTrained(flat[i*dim : (i+1)*dim]); tree != baseCompiled[i] {
			t.Fatalf("placement %d: compiled %+v, tree walk %+v", i, baseCompiled[i], tree)
		}
	}

	var frame bytes.Buffer
	if err := WriteColumnarBatch(&frame, records, ColumnarWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	var cb ColumnarBatch
	if err := ReadColumnarBatch(bytes.NewReader(frame.Bytes()), &cb, DefaultColumnarLimits()); err != nil {
		t.Fatal(err)
	}
	verdictBytes := func(preds []Prediction) []byte {
		t.Helper()
		b, err := json.Marshal(preds)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	basePipe.SetParallelism(1)
	basePreds, err := basePipe.DetectBatch(records, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseBatchJSON := verdictBytes(basePreds)
	baseColPreds, err := basePipe.DetectColumnar(&cb, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseColJSON := verdictBytes(baseColPreds)
	if !bytes.Equal(baseBatchJSON, baseColJSON) {
		t.Fatal("P=1 baseline: DetectColumnar verdicts differ from DetectBatch")
	}

	comp := make([]Placement, n)
	for _, p := range scalingParSweep {
		pipe, err := TrainPipeline(records, cfgFor(p))
		if err != nil {
			t.Fatalf("P=%d: train: %v", p, err)
		}
		if got := serialize(pipe); !bytes.Equal(got, baseBytes) {
			t.Errorf("P=%d: serialized model differs from P=1 baseline (lens %d vs %d)",
				p, len(got), len(baseBytes))
		}

		if err := compiled.RouteTrainedFlat(flat, n, comp, p); err != nil {
			t.Fatalf("P=%d: route compiled: %v", p, err)
		}
		for i := 0; i < n; i++ {
			if comp[i] != baseCompiled[i] {
				t.Fatalf("P=%d: compiled placement %d = %+v, P=1 %+v", p, i, comp[i], baseCompiled[i])
			}
		}

		basePipe.SetParallelism(p)
		preds, err := basePipe.DetectBatch(records, nil)
		if err != nil {
			t.Fatalf("P=%d: detect batch: %v", p, err)
		}
		if got := verdictBytes(preds); !bytes.Equal(got, baseBatchJSON) {
			t.Errorf("P=%d: DetectBatch verdicts differ from P=1 baseline", p)
		}
		colPreds, err := basePipe.DetectColumnar(&cb, nil)
		if err != nil {
			t.Fatalf("P=%d: detect columnar: %v", p, err)
		}
		if got := verdictBytes(colPreds); !bytes.Equal(got, baseColJSON) {
			t.Errorf("P=%d: DetectColumnar verdicts differ from P=1 baseline", p)
		}
	}
	basePipe.SetParallelism(1)
}
