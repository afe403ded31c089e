package ghsom

// Benchmark harness: one target per table and figure of the evaluation
// (see DESIGN.md section 4 and EXPERIMENTS.md). Each benchmark runs the
// corresponding eval runner on the small scenario so `go test -bench=.`
// finishes in minutes; cmd/experiments reproduces the full-scale numbers
// on the kdd99 scenario. Quality metrics are attached to the benchmark
// output via ReportMetric, so the bench log doubles as a results table.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"ghsom/internal/anomaly"
	"ghsom/internal/core"
	"ghsom/internal/eval"
	"ghsom/internal/kdd"
	"ghsom/internal/trafficgen"
)

// benchState caches the generated dataset, and the models trained on
// it, across benchmarks and across the b.N ramp steps that re-invoke
// each benchmark function.
var benchState struct {
	once sync.Once
	enc  *eval.Encoded
	ds   eval.Dataset
	err  error

	ghsomOnce sync.Once
	model     *core.GHSOM
	det       *anomaly.Detector
	ghsomErr  error

	pipeOnce sync.Once
	pipe     *Pipeline
	pipeErr  error
}

func benchEncoded(b *testing.B) *eval.Encoded {
	b.Helper()
	benchState.once.Do(func() {
		ds, err := eval.MakeDataset(trafficgen.Small(1), 0.67, 1)
		if err != nil {
			benchState.err = err
			return
		}
		benchState.ds = ds
		benchState.enc, benchState.err = eval.Encode(ds)
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
	return benchState.enc
}

// benchGHSOM returns the default-config GHSOM and its detector trained
// on the benchmark dataset, training them once per process.
func benchGHSOM(b *testing.B) (*core.GHSOM, *anomaly.Detector) {
	b.Helper()
	enc := benchEncoded(b)
	benchState.ghsomOnce.Do(func() {
		_, benchState.model, benchState.det, benchState.ghsomErr =
			eval.RunGHSOM(enc, eval.DefaultModelConfig(1), anomaly.Config{})
	})
	if benchState.ghsomErr != nil {
		b.Fatal(benchState.ghsomErr)
	}
	return benchState.model, benchState.det
}

// benchPipeline returns the default pipeline trained on the benchmark
// dataset's training records, training it once per process.
func benchPipeline(b *testing.B) *Pipeline {
	b.Helper()
	benchEncoded(b)
	benchState.pipeOnce.Do(func() {
		benchState.pipe, benchState.pipeErr = TrainPipeline(benchState.ds.Train, DefaultPipelineConfig())
	})
	if benchState.pipeErr != nil {
		b.Fatal(benchState.pipeErr)
	}
	return benchState.pipe
}

// BenchmarkTableT1DatasetGeneration regenerates the T1 dataset: the
// synthetic trace plus the 41-feature derivation.
func BenchmarkTableT1DatasetGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		records, err := trafficgen.Generate(trafficgen.Small(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(records)), "records")
	}
}

// BenchmarkTableT2Comparison runs the headline GHSOM vs SOM vs k-means vs
// threshold comparison.
func BenchmarkTableT2Comparison(b *testing.B) {
	enc := benchEncoded(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := eval.Comparison(enc, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].Accuracy, "ghsom-acc")
		b.ReportMetric(results[0].AUC, "ghsom-auc")
	}
}

// BenchmarkTableT3PerClass runs the per-category detection table.
func BenchmarkTableT3PerClass(b *testing.B) {
	enc := benchEncoded(b)
	_, det := benchGHSOM(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.PerClass(enc, det)
		b.ReportMetric(res.Recall["dos"], "dos-recall")
		b.ReportMetric(res.Binary.DetectionRate(), "detect-rate")
	}
}

// BenchmarkTableT4TauSweep runs the (tau1, tau2) structure sweep (reduced
// grid; cmd/experiments runs the full 3x3).
func BenchmarkTableT4TauSweep(b *testing.B) {
	enc := benchEncoded(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.TauSweep(enc, []float64{0.7, 0.4}, []float64{0.1, 0.02}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[len(rows)-1].Units), "units-widest")
	}
}

// BenchmarkFigureF1Convergence trains with growth tracing and reports the
// root map's final mean-unit MQE (the F1 series endpoint).
func BenchmarkFigureF1Convergence(b *testing.B) {
	enc := benchEncoded(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace, model, err := eval.ConvergenceTrace(enc, 1)
		if err != nil {
			b.Fatal(err)
		}
		events := trace.ForNode(model.Root().ID)
		b.ReportMetric(events[len(events)-1].MeanUnitMQE, "final-mqe")
	}
}

// BenchmarkFigureF2ROC computes the GHSOM-vs-SOM ROC curves and reports
// both AUCs.
func BenchmarkFigureF2ROC(b *testing.B) {
	enc := benchEncoded(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves, err := eval.ROCCurves(enc, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(curves[0].AUC, "ghsom-auc")
		b.ReportMetric(curves[1].AUC, "som-auc")
	}
}

// BenchmarkFigureF3Growth reports the root map's growth (unit count per
// iteration endpoint) — the F3 series.
func BenchmarkFigureF3Growth(b *testing.B) {
	enc := benchEncoded(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace, model, err := eval.ConvergenceTrace(enc, 1)
		if err != nil {
			b.Fatal(err)
		}
		events := trace.ForNode(model.Root().ID)
		last := events[len(events)-1]
		b.ReportMetric(float64(last.Rows*last.Cols), "root-units")
		b.ReportMetric(float64(len(events)-1), "grow-iters")
	}
}

// BenchmarkFigureF4Scalability runs the train-time/throughput scaling
// points.
func BenchmarkFigureF4Scalability(b *testing.B) {
	enc := benchEncoded(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.Scalability(enc, []int{1000, 2000, 4000}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].ClassifyPerSec, "classify/s")
	}
}

// BenchmarkAblationA1Novelty runs the unseen-attack holdout.
func BenchmarkAblationA1Novelty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.NoveltyHoldout(5, 1, "smurf", "satan", "warezclient")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.UnseenDR, "unseen-dr")
		b.ReportMetric(res.FPR, "fpr")
	}
}

// BenchmarkAblationA2BatchVsOnline runs the training-rule ablation.
func BenchmarkAblationA2BatchVsOnline(b *testing.B) {
	enc := benchEncoded(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := eval.BatchVsOnline(enc, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].Accuracy, "online-acc")
		b.ReportMetric(results[1].Accuracy, "batch-acc")
	}
}

// BenchmarkAblationA3Routing runs the effective-codebook vs all-units
// routing ablation.
func BenchmarkAblationA3Routing(b *testing.B) {
	enc := benchEncoded(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := eval.RoutingAblation(enc, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].Accuracy, "trained-acc")
		b.ReportMetric(results[1].Accuracy, "allunits-acc")
	}
}

// BenchmarkAblationA4Margin runs the novelty-margin sensitivity sweep.
func BenchmarkAblationA4Margin(b *testing.B) {
	enc := benchEncoded(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.MarginSweep(enc, []float64{1.0, 1.5, 3.0}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FPR, "fpr@1.0")
		b.ReportMetric(rows[len(rows)-1].FPR, "fpr@3.0")
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkTrainGHSOM measures end-to-end GHSOM training on the capped
// training set.
func BenchmarkTrainGHSOM(b *testing.B) {
	enc := benchEncoded(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eval.RunGHSOM(enc, eval.DefaultModelConfig(1), anomaly.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteRecord measures hierarchical BMU routing of one record on
// the shipped path: the compiled effective-codebook descent.
func BenchmarkRouteRecord(b *testing.B) {
	enc := benchEncoded(b)
	model, _ := benchGHSOM(b)
	compiled := core.Compile(model)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiled.RouteTrained(enc.TestX[i%len(enc.TestX)])
	}
}

// BenchmarkDetectRecord measures the full per-record verdict (routing +
// label + novelty decision).
func BenchmarkDetectRecord(b *testing.B) {
	enc := benchEncoded(b)
	_, det := benchGHSOM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Classify(enc.TestX[i%len(enc.TestX)])
	}
}

// BenchmarkPipelineDetect measures the user-facing path: raw record ->
// encode -> scale -> verdict.
func BenchmarkPipelineDetect(b *testing.B) {
	pipe := benchPipeline(b)
	records := benchState.ds.Train
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Detect(&records[i%len(records)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel-scaling benchmarks ---

// benchParallelConfig returns the small-scenario pipeline config with
// every layer's Parallelism knob at p.
func benchParallelConfig(p int) PipelineConfig {
	cfg := DefaultPipelineConfig()
	cfg.Parallelism = p
	cfg.Model.Parallelism = p
	cfg.Detector.Parallelism = p
	return cfg
}

// benchParallelism is the worker sweep: 1 (serial baseline), 4 (the
// speedup target), and 0 (GOMAXPROCS). On multi-core hardware DetectAll
// at P=4 should run >= 2x the records/sec of P=1; on a single-core
// runner the three points collapse to the same throughput.
var benchParallelism = []struct {
	name string
	p    int
}{
	{"P1", 1},
	{"P4", 4},
	{"Pmax", 0},
}

// BenchmarkDetectAll measures batch classification throughput — the
// inference hot path — at each Parallelism setting, reporting records/sec
// and allocations per record (DetectAll allocates the prediction slice
// per call, so its floor is that one slice amortized over the batch).
func BenchmarkDetectAll(b *testing.B) {
	benchEncoded(b)
	records := benchState.ds.Test
	for _, pc := range benchParallelism {
		b.Run(pc.name, func(b *testing.B) {
			pipe, err := TrainPipeline(benchState.ds.Train, benchParallelConfig(pc.p))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipe.DetectAll(records); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			recPerSec := float64(len(records)) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(recPerSec, "records/sec")
		})
	}
}

// BenchmarkDetectBatch measures the zero-allocation batch dataplane at
// each Parallelism setting: records/sec and allocs/record in steady
// state, with the output slice reused across iterations. The allocs/op
// figure (per ReportAllocs) is the PR's acceptance gate: after the first
// warm-up iteration the whole batch must cost only a bounded handful of
// allocations (worker goroutines + pool churn), i.e. ~0 per record.
func BenchmarkDetectBatch(b *testing.B) {
	benchEncoded(b)
	records := benchState.ds.Test
	for _, pc := range benchParallelism {
		b.Run(pc.name, func(b *testing.B) {
			pipe, err := TrainPipeline(benchState.ds.Train, benchParallelConfig(pc.p))
			if err != nil {
				b.Fatal(err)
			}
			out := make([]Prediction, len(records))
			// Warm the arenas so the measured loop is steady state.
			if _, err := pipe.DetectBatch(records, out); err != nil {
				b.Fatal(err)
			}
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipe.DetectBatch(records, out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			recs := float64(len(records)) * float64(b.N)
			b.ReportMetric(recs/b.Elapsed().Seconds(), "records/sec")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/record")
		})
	}
}

// BenchmarkTrainPipeline measures end-to-end pipeline training (encoding,
// scaling, GHSOM growth as a dataflow tree of maps, detector fitting) at
// each Parallelism setting, reporting training records/sec. The kdd99
// case trains the production model — DefaultPipelineConfig on
// KDD99Scenario(1), the model the serving benchmark deploys — so it is
// the in-process twin of servebench's setup.train_s.
func BenchmarkTrainPipeline(b *testing.B) {
	benchEncoded(b)
	run := func(b *testing.B, records []Record, cfg PipelineConfig) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := TrainPipeline(records, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		recPerSec := float64(len(records)) * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(recPerSec, "records/sec")
	}
	for _, pc := range benchParallelism {
		b.Run(pc.name, func(b *testing.B) {
			run(b, benchState.ds.Train, benchParallelConfig(pc.p))
		})
	}
	b.Run("kdd99", func(b *testing.B) {
		records, err := GenerateTraffic(KDD99Scenario(1))
		if err != nil {
			b.Fatal(err)
		}
		run(b, records, DefaultPipelineConfig())
	})
}

// BenchmarkDetectColumnar measures the columnar wire-format dataplane —
// DetectColumnar over one decoded GHSOMWB1 frame of the test set — on the
// same Parallelism sweep as BenchmarkDetectBatch, reporting records/sec.
// The live16 case is the live request shape instead: the test set as
// 16-record NDJSON bodies decoded into batches, classified one batch per
// call at P=1. Decoding is outside the timed loop;
// BenchmarkIngestColumnar and BenchmarkReadRecordsBody in internal/kdd
// measure it.
func BenchmarkDetectColumnar(b *testing.B) {
	benchEncoded(b)
	records := benchState.ds.Test
	pipe, err := TrainPipeline(benchState.ds.Train, benchParallelConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	var frame bytes.Buffer
	if err := WriteColumnarBatch(&frame, records, ColumnarWriteOptions{}); err != nil {
		b.Fatal(err)
	}
	var cb ColumnarBatch
	if err := ReadColumnarBatch(bytes.NewReader(frame.Bytes()), &cb, DefaultColumnarLimits()); err != nil {
		b.Fatal(err)
	}
	out := make([]Prediction, len(records))
	for _, pc := range benchParallelism {
		b.Run(pc.name, func(b *testing.B) {
			pipe.SetParallelism(pc.p)
			if _, err := pipe.DetectColumnar(&cb, out); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipe.DetectColumnar(&cb, out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(records))*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
		})
	}
	b.Run("live16", func(b *testing.B) {
		const body = 16
		var batches []*ColumnarBatch
		p := kdd.NewRecordParser(nil)
		for lo := 0; lo+body <= len(records); lo += body {
			var nd bytes.Buffer
			enc := json.NewEncoder(&nd)
			for i := range records[lo : lo+body] {
				if err := enc.Encode(&records[lo+i]); err != nil {
					b.Fatal(err)
				}
			}
			cb := new(ColumnarBatch)
			p.Reset(&nd)
			if err := p.AppendColumnar(cb, 0); err != nil {
				b.Fatal(err)
			}
			batches = append(batches, cb)
		}
		pipe.SetParallelism(1)
		out := make([]Prediction, body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pipe.DetectColumnar(batches[i%len(batches)], out); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(body)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	})
}

// BenchmarkLoadPipelineFile measures a cold model load of one saved
// envelope: "heap" decodes the arena and tables into the heap, "mmap"
// maps the file and views it in place. A load carries no records, so the
// figures are ns per load and the envelope's bytes per second.
func BenchmarkLoadPipelineFile(b *testing.B) {
	benchEncoded(b)
	pipe, err := TrainPipeline(benchState.ds.Train, benchParallelConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "model.bin")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := pipe.Save(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		mapped bool
	}{{"heap", false}, {"mmap", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(st.Size())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := LoadPipelineFile(path, mode.mapped)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
