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
// bound, and the compiled placements must equal the per-row tree walk on
// the production-shape pipeline model. The scheduler's determinism contract
// makes this exact, not approximate: chunk layout is a pure function of
// (n, grain), never P, and partial results fold in ascending chunk
// order, so P=1 executes the identical chunked computation tree.
func TestDataplanesByteIdenticalAcrossParallelism(t *testing.T) {
	records, err := GenerateTraffic(SmallScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	records = records[:1200]
	n := len(records)

	// P=1 baseline: trained bytes, routing placements, and verdicts.
	basePipe, err := TrainPipeline(records, benchParallelConfig(1))
	if err != nil {
		t.Fatal(err)
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
		pipe, err := TrainPipeline(records, benchParallelConfig(p))
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

// precisionParSweep is the worker-bound ladder of the cross-precision
// suite: serial, an even split, oversubscription, and GOMAXPROCS.
var precisionParSweep = []int{1, 2, 8, 0}

// TestDataplanesByteIdenticalAcrossPrecision is the quantized BMU
// engine's regression suite: training and inference at every
// candidate-generation rung — f64 scalar baseline, f32 narrowed, int8
// shadow codebook, and auto — must produce byte-identical serialized
// models, routing placements, and verdict JSON at every worker bound.
// Reduced precision only nominates candidates; the canonical f64 settle
// (with the rung's rigorous error-bound-widened margin) picks every
// winner, so the contract is exact, not approximate.
func TestDataplanesByteIdenticalAcrossPrecision(t *testing.T) {
	records, err := GenerateTraffic(SmallScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	records = records[:1200]
	n := len(records)

	// f64 P=1 baseline.
	baseCfg := benchParallelConfig(1)
	baseCfg.Model.BMUPrecision = PrecisionF64
	basePipe, err := TrainPipeline(records, baseCfg)
	if err != nil {
		t.Fatal(err)
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

	compiled := basePipe.Compiled()
	flat := make([]float64, 0, n*compiled.Dim())
	for i := range records {
		x, err := basePipe.Encode(&records[i])
		if err != nil {
			t.Fatal(err)
		}
		flat = append(flat, x...)
	}
	basePlaces := make([]Placement, n)
	if err := compiled.RouteTrainedFlat(flat, n, basePlaces, 1); err != nil {
		t.Fatal(err)
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

	places := make([]Placement, n)
	for _, prec := range []Precision{PrecisionF32, PrecisionI8, PrecisionAuto} {
		for _, p := range precisionParSweep {
			cfg := benchParallelConfig(p)
			cfg.Model.BMUPrecision = prec
			pipe, err := TrainPipeline(records, cfg)
			if err != nil {
				t.Fatalf("prec=%v P=%d: train: %v", prec, p, err)
			}
			if got := serialize(pipe); !bytes.Equal(got, baseBytes) {
				t.Errorf("prec=%v P=%d: serialized model differs from f64 P=1 baseline (lens %d vs %d)",
					prec, p, len(got), len(baseBytes))
			}
			if err := pipe.Compiled().RouteTrainedFlat(flat, n, places, p); err != nil {
				t.Fatalf("prec=%v P=%d: route compiled: %v", prec, p, err)
			}
			for i := 0; i < n; i++ {
				if places[i] != basePlaces[i] {
					t.Fatalf("prec=%v P=%d: placement %d = %+v, f64 P=1 %+v",
						prec, p, i, places[i], basePlaces[i])
				}
			}
			pipe.SetParallelism(p)
			preds, err := pipe.DetectBatch(records, nil)
			if err != nil {
				t.Fatalf("prec=%v P=%d: detect batch: %v", prec, p, err)
			}
			if got := verdictBytes(preds); !bytes.Equal(got, baseBatchJSON) {
				t.Errorf("prec=%v P=%d: DetectBatch verdicts differ from f64 P=1 baseline", prec, p)
			}
			colPreds, err := pipe.DetectColumnar(&cb, nil)
			if err != nil {
				t.Fatalf("prec=%v P=%d: detect columnar: %v", prec, p, err)
			}
			if got := verdictBytes(colPreds); !bytes.Equal(got, baseBatchJSON) {
				t.Errorf("prec=%v P=%d: DetectColumnar verdicts differ from f64 P=1 baseline", prec, p)
			}
		}
		// Retargeting a loaded/trained pipeline must be equivalent to
		// training at that precision.
		basePipe.SetBMUPrecision(prec)
		preds, err := basePipe.DetectBatch(records, nil)
		if err != nil {
			t.Fatalf("prec=%v retarget: detect batch: %v", prec, err)
		}
		if got := verdictBytes(preds); !bytes.Equal(got, baseBatchJSON) {
			t.Errorf("prec=%v retarget: DetectBatch verdicts differ from f64 baseline", prec)
		}
		basePipe.SetBMUPrecision(PrecisionF64)
	}
}
