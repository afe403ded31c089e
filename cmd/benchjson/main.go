// Command benchjson measures inference, training, and routing throughput
// of the detection pipeline and writes them as machine-readable JSON
// artifacts, so CI can track the perf trajectory across commits.
//
// It trains a pipeline on the small synthetic scenario, then benchmarks
// DetectAll and DetectBatch (inference), som-level TrainBatchView and
// end-to-end TrainPipeline (training), tree-walk vs compiled model
// routing (RouteTree / RouteCompiled), and the scalar vs blocked BMU
// search kernels (ArgMinScalar / ArgMinBatch across a dim×units sweep)
// across the -p parallelism sweep (default "1,0": serial and GOMAXPROCS)
// via testing.Benchmark.
//
// -scaling-out writes the multi-core scaling curve: records/sec and
// parallel efficiency for the four end-to-end dataplanes (TrainPipeline,
// RouteCompiled, DetectBatch, DetectColumnar) at every P in
// {1, 2, 4, ..., GOMAXPROCS}. On a single-CPU host the curve degenerates
// to the P=1 point; that is recorded, not an error.
//
// Usage:
//
//	benchjson -p 1,2,4,0 -out BENCH_inference.json \
//	          -train-out BENCH_training.json -routing-out BENCH_routing.json \
//	          -bmu-out BENCH_bmu.json -scaling-out BENCH_scaling.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ghsom"
	"ghsom/internal/cluster"
	"ghsom/internal/core"
	"ghsom/internal/eval"
	"ghsom/internal/kdd"
	"ghsom/internal/parallel"
	"ghsom/internal/serve"
	"ghsom/internal/som"
	"ghsom/internal/trafficgen"
	"ghsom/internal/vecmath"
)

// point is one measured benchmark configuration.
type point struct {
	// Name identifies the measured code path (DetectAll, DetectBatch,
	// TrainBatch, TrainPipeline, ArgMinScalar, ArgMinBatch).
	Name string `json:"name"`
	// Parallelism is the worker bound (0 reported as GOMAXPROCS).
	Parallelism int `json:"parallelism"`
	// Dim is the vector dimension (BMU kernel points only).
	Dim int `json:"dim,omitempty"`
	// Units is the codebook row count (BMU kernel points only).
	Units int `json:"units,omitempty"`
	// BatchRecords is the number of records per benchmark op.
	BatchRecords int `json:"batchRecords"`
	// Epochs is the training epochs per op (training points only).
	Epochs int `json:"epochs,omitempty"`
	// Iterations is the benchmark op count.
	Iterations int `json:"iterations"`
	// NsPerOp is wall time per op.
	NsPerOp int64 `json:"nsPerOp"`
	// RecordsPerSec is per-record throughput (records classified or
	// trained per second of wall time).
	RecordsPerSec float64 `json:"recordsPerSec"`
	// RecordEpochsPerSec is records x epochs per second — the
	// training-kernel throughput measure (training points only).
	RecordEpochsPerSec float64 `json:"recordEpochsPerSec,omitempty"`
	// AllocsPerRecord is heap allocations per record.
	AllocsPerRecord float64 `json:"allocsPerRecord"`
	// AllocsPerEpoch is heap allocations per training epoch (training
	// points only).
	AllocsPerEpoch float64 `json:"allocsPerEpoch,omitempty"`
	// BytesPerRecord is heap bytes per record.
	BytesPerRecord float64 `json:"bytesPerRecord"`
	// Efficiency is the parallel efficiency rate(P)/(P·rate(1)) —
	// 1.0 is perfect linear scaling (scaling points only).
	Efficiency float64 `json:"efficiency,omitempty"`
	// Precision is the BMU candidate-generation rung (quant points only).
	Precision string `json:"precision,omitempty"`
	// QuantArenaBytes is the shadow-codebook footprint of the rung — the
	// f64 arena bytes for the f64 baseline (quant points only).
	QuantArenaBytes int `json:"quantArenaBytes,omitempty"`
}

// artifact is the document written for each benchmark family.
type artifact struct {
	Schema     int       `json:"schema"`
	Generated  time.Time `json:"generated"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Records    int       `json:"records"`
	Points     []point   `json:"points"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "BENCH_inference.json", "inference JSON path (empty = skip)")
	trainOut := fs.String("train-out", "BENCH_training.json", "training JSON path (empty = skip)")
	routingOut := fs.String("routing-out", "BENCH_routing.json", "routing JSON path (empty = skip)")
	bmuOut := fs.String("bmu-out", "BENCH_bmu.json", "BMU kernel JSON path (empty = skip)")
	ingestOut := fs.String("ingest-out", "BENCH_ingest.json", "ingestion dataplane JSON path (empty = skip)")
	quantOut := fs.String("quant-out", "BENCH_quant.json", "quantized BMU candidate-generation JSON path (empty = skip)")
	scalingOut := fs.String("scaling-out", "", "multi-core scaling curve JSON path (empty = skip)")
	clusterOut := fs.String("cluster-out", "", "distributed serving tier JSON path (empty = skip)")
	pList := fs.String("p", "1,0", "comma-separated parallelism sweep for all bench families (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sweep, err := parseParSweep(*pList)
	if err != nil {
		return err
	}
	parSweep = sweep

	records, err := trafficgen.Generate(trafficgen.Small(1))
	if err != nil {
		return err
	}
	if *out != "" {
		doc, err := inferencePoints(records)
		if err != nil {
			return err
		}
		if err := writeArtifact(*out, doc); err != nil {
			return err
		}
	}
	if *trainOut != "" {
		doc, err := trainingPoints(records)
		if err != nil {
			return err
		}
		if err := writeArtifact(*trainOut, doc); err != nil {
			return err
		}
	}
	if *routingOut != "" {
		doc, err := routingPoints(records)
		if err != nil {
			return err
		}
		if err := writeArtifact(*routingOut, doc); err != nil {
			return err
		}
	}
	if *bmuOut != "" {
		if err := writeArtifact(*bmuOut, bmuPoints()); err != nil {
			return err
		}
	}
	if *ingestOut != "" {
		doc, err := ingestPoints(records)
		if err != nil {
			return err
		}
		if err := writeArtifact(*ingestOut, doc); err != nil {
			return err
		}
	}
	if *quantOut != "" {
		if err := writeArtifact(*quantOut, quantPoints()); err != nil {
			return err
		}
	}
	if *scalingOut != "" {
		doc, err := scalingPoints(records)
		if err != nil {
			return err
		}
		if err := writeArtifact(*scalingOut, doc); err != nil {
			return err
		}
	}
	if *clusterOut != "" {
		doc, err := clusterPoints(records)
		if err != nil {
			return err
		}
		if err := writeArtifact(*clusterOut, doc); err != nil {
			return err
		}
	}
	return nil
}

// parseParSweep parses the -p flag: a comma-separated list of worker
// bounds, each >= 0 (0 = GOMAXPROCS), deduplicated in order.
func parseParSweep(list string) ([]int, error) {
	var sweep []int
	seen := make(map[int]bool)
	for _, fieldRaw := range strings.Split(list, ",") {
		field := strings.TrimSpace(fieldRaw)
		if field == "" {
			continue
		}
		p, err := strconv.Atoi(field)
		if err != nil || p < 0 {
			return nil, fmt.Errorf("-p: invalid parallelism %q (want integers >= 0)", field)
		}
		if !seen[p] {
			seen[p] = true
			sweep = append(sweep, p)
		}
	}
	if len(sweep) == 0 {
		return nil, fmt.Errorf("-p: empty sweep")
	}
	return sweep, nil
}

// scalingLadder is the P ladder for the scaling curve: powers of two up
// to GOMAXPROCS, always ending at GOMAXPROCS itself. On one CPU it is
// just {1}.
func scalingLadder() []int {
	maxP := runtime.GOMAXPROCS(0)
	var ps []int
	for p := 1; p < maxP; p *= 2 {
		ps = append(ps, p)
	}
	return append(ps, maxP)
}

// scalingPoints measures the four end-to-end dataplanes across the
// scaling ladder and annotates each point with its parallel efficiency
// relative to the P=1 point of the same dataplane. Training produces a
// bit-identical model at every P (the determinism contract), so the
// serving-side dataplanes all run against one shared trained pipeline.
func scalingPoints(records []ghsom.Record) (artifact, error) {
	doc := newArtifact(len(records))
	n := len(records)

	pipe, err := ghsom.TrainPipeline(records, pipelineConfig(0))
	if err != nil {
		return artifact{}, err
	}
	compiled := pipe.Compiled()
	flat := make([]float64, 0, n*compiled.Dim())
	for i := range records {
		x, err := pipe.Encode(&records[i])
		if err != nil {
			return artifact{}, err
		}
		flat = append(flat, x...)
	}
	outPlaces := make([]core.Placement, n)

	var frame bytes.Buffer
	if err := kdd.WriteColumnarBatch(&frame, records, kdd.ColumnarWriteOptions{}); err != nil {
		return artifact{}, err
	}
	var cb ghsom.ColumnarBatch
	if err := kdd.ReadColumnarBatch(bytes.NewReader(frame.Bytes()), &cb, kdd.DefaultColumnarLimits); err != nil {
		return artifact{}, err
	}
	preds := make([]ghsom.Prediction, n)

	for _, par := range scalingLadder() {
		par := par
		pipe.SetParallelism(par)
		doc.Points = append(doc.Points,
			measure("TrainPipeline", par, n, 0, func(b *testing.B) {
				cfg := pipelineConfig(par)
				for i := 0; i < b.N; i++ {
					if _, err := ghsom.TrainPipeline(records, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}),
			measure("RouteCompiled", par, n, 0, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := compiled.RouteTrainedFlat(flat, n, outPlaces, par); err != nil {
						b.Fatal(err)
					}
				}
			}),
			measure("DetectBatch", par, n, 0, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := pipe.DetectBatch(records, preds); err != nil {
						b.Fatal(err)
					}
				}
			}),
			measure("DetectColumnar", par, n, 0, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := pipe.DetectColumnar(&cb, preds); err != nil {
						b.Fatal(err)
					}
				}
			}),
		)
	}
	pipe.SetParallelism(0)

	base := make(map[string]float64)
	for _, p := range doc.Points {
		if p.Parallelism == 1 {
			base[p.Name] = p.RecordsPerSec
		}
	}
	for i := range doc.Points {
		p := &doc.Points[i]
		if b := base[p.Name]; b > 0 {
			p.Efficiency = p.RecordsPerSec / (float64(p.Parallelism) * b)
		}
	}
	return doc, nil
}

// ingestPoints measures the ingestion dataplane: wire bytes to the
// encoded feature matrix for NDJSON (pooled fast parser and the stdlib
// json.Decoder baseline) against the columnar batch format, plus the
// cold model load path heap-decoded against mmap-backed.
func ingestPoints(records []ghsom.Record) (artifact, error) {
	doc := newArtifact(len(records))

	var nd bytes.Buffer
	jenc := json.NewEncoder(&nd)
	for i := range records {
		if err := jenc.Encode(&records[i]); err != nil {
			return artifact{}, err
		}
	}
	var col bytes.Buffer
	if err := kdd.WriteColumnarBatch(&col, records, kdd.ColumnarWriteOptions{}); err != nil {
		return artifact{}, err
	}
	ndjson, columnar := nd.Bytes(), col.Bytes()

	enc := kdd.NewEncoder(records, kdd.EncoderConfig{LogTransform: true})
	d := enc.Dim()
	flat := make([]float64, len(records)*d)
	parser := kdd.NewRecordParser(bytes.NewReader(ndjson))
	var rec kdd.Record
	var cb kdd.ColumnarBatch
	doc.Points = append(doc.Points,
		measure("IngestNDJSON", 1, len(records), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parser.Reset(bytes.NewReader(ndjson))
				n := 0
				for {
					if err := parser.Next(&rec); err != nil {
						if errors.Is(err, io.EOF) {
							break
						}
						b.Fatal(err)
					}
					if err := enc.EncodeInto(&rec, flat[n*d:(n+1)*d]); err != nil {
						b.Fatal(err)
					}
					n++
				}
				if n != len(records) {
					b.Fatalf("parsed %d records, want %d", n, len(records))
				}
			}
		}),
		measure("IngestNDJSONStdlib", 1, len(records), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dec := json.NewDecoder(bytes.NewReader(ndjson))
				n := 0
				for dec.More() {
					var r kdd.Record
					if err := dec.Decode(&r); err != nil {
						b.Fatal(err)
					}
					if err := enc.EncodeInto(&r, flat[n*d:(n+1)*d]); err != nil {
						b.Fatal(err)
					}
					n++
				}
			}
		}),
		measure("IngestColumnar", 1, len(records), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := kdd.ReadColumnarBatch(bytes.NewReader(columnar), &cb, kdd.DefaultColumnarLimits); err != nil {
					b.Fatal(err)
				}
				if err := enc.BindColumnar(&cb); err != nil {
					b.Fatal(err)
				}
				if err := enc.EncodeColumnarRows(&cb, 0, cb.Rows(), flat); err != nil {
					b.Fatal(err)
				}
			}
		}),
	)

	// Cold model load: the same trained envelope through the heap decoder
	// (arena and tables copied out) and the mmap loader (views over the
	// page-cache-shared mapping). BatchRecords=1 so the per-record columns
	// read as per-load.
	pipe, err := ghsom.TrainPipeline(records, pipelineConfig(1))
	if err != nil {
		return artifact{}, err
	}
	dir, err := os.MkdirTemp("", "benchjson")
	if err != nil {
		return artifact{}, err
	}
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "model.bin")
	mf, err := os.Create(modelPath)
	if err != nil {
		return artifact{}, err
	}
	if err := pipe.Save(mf); err != nil {
		mf.Close()
		return artifact{}, err
	}
	if err := mf.Close(); err != nil {
		return artifact{}, err
	}
	for _, mapped := range []bool{false, true} {
		name := "ColdLoadHeap"
		if mapped {
			name = "ColdLoadMmap"
		}
		doc.Points = append(doc.Points, measure(name, 1, 1, 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := ghsom.LoadPipelineFile(modelPath, mapped)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	return doc, nil
}

// bmuShapes is the BMU kernel sweep: dimensions bracketing the encoded
// KDD width and unit counts from a GHSOM child map to a large flat SOM.
var bmuShapes = []struct{ dim, units int }{
	{8, 4}, {8, 64}, {8, 256},
	{32, 4}, {32, 64}, {32, 256},
	{118, 4}, {118, 64}, {118, 256},
}

// bmuPoints measures the scalar per-row BMU scan (ArgMinDistance)
// against the blocked engine (ArgMinDistanceBatch, norm-cached
// expanded-distance candidates with exact settle) on synthetic uniform
// data across the dim×units sweep, at P=1 and GOMAXPROCS.
func bmuPoints() artifact {
	const n = 2048
	doc := newArtifact(n)
	for _, sh := range bmuShapes {
		rng := rand.New(rand.NewSource(42))
		flat := make([]float64, sh.units*sh.dim)
		data := make([]float64, n*sh.dim)
		for i := range flat {
			flat[i] = rng.Float64()
		}
		for i := range data {
			data[i] = rng.Float64()
		}
		mat, err := vecmath.MatrixOver(data, n, sh.dim)
		if err != nil {
			panic(err) // static shapes; cannot fail
		}
		view := mat.View()
		norms := vecmath.SquaredNorms(flat, sh.dim, nil)
		bmus := make([]int, n)
		d2s := make([]float64, n)
		for _, par := range parSweep {
			par := par
			sp := measure("ArgMinScalar", effectivePar(par), n, 0, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					parallel.ForEach(par, n, func(r int) {
						bmus[r], d2s[r] = vecmath.ArgMinDistance(view.Row(r), flat)
					})
				}
			})
			sp.Dim, sp.Units = sh.dim, sh.units
			bp := measure("ArgMinBatch", effectivePar(par), n, 0, func(b *testing.B) {
				w := parallel.Workers(par, n)
				chunk := (n + w - 1) / w
				chunks := (n + chunk - 1) / chunk
				for i := 0; i < b.N; i++ {
					parallel.ForEach(par, chunks, func(c int) {
						lo := c * chunk
						hi := min(lo+chunk, n)
						vecmath.ArgMinDistanceBatch(view.Slice(lo, hi), flat, norms, bmus[lo:hi], d2s[lo:hi])
					})
				}
			})
			bp.Dim, bp.Units = sh.dim, sh.units
			doc.Points = append(doc.Points, sp, bp)
		}
	}
	return doc
}

// quantShapes is the quantized candidate-generation sweep: the bmuShapes
// grid widened with a 1024-unit flat codebook, where the int8 rung's
// bandwidth advantage is the acceptance headline.
var quantShapes = []struct{ dim, units int }{
	{8, 4}, {8, 64}, {8, 256}, {8, 1024},
	{32, 4}, {32, 64}, {32, 256}, {32, 1024},
	{118, 4}, {118, 64}, {118, 256}, {118, 1024},
}

// quantPoints measures the blocked BMU engine at each forced
// candidate-generation rung (f64 baseline, f32 narrowed, i8 shadow
// codebook) across the dim×units sweep, on the same synthetic uniform
// data as bmuPoints. Every rung produces bit-identical winners — the
// points differ only in throughput and in the shadow-arena bytes each
// rung carries beside the canonical f64 weights.
func quantPoints() artifact {
	const n = 2048
	doc := newArtifact(n)
	for _, sh := range quantShapes {
		rng := rand.New(rand.NewSource(42))
		flat := make([]float64, sh.units*sh.dim)
		data := make([]float64, n*sh.dim)
		for i := range flat {
			flat[i] = rng.Float64()
		}
		for i := range data {
			data[i] = rng.Float64()
		}
		mat, err := vecmath.MatrixOver(data, n, sh.dim)
		if err != nil {
			panic(err) // static shapes; cannot fail
		}
		view := mat.View()
		norms := vecmath.SquaredNorms(flat, sh.dim, nil)
		bmus := make([]int, n)
		d2s := make([]float64, n)
		for _, prec := range []vecmath.Precision{vecmath.PrecisionF64, vecmath.PrecisionF32, vecmath.PrecisionI8} {
			prec := prec
			var qa *vecmath.QuantArena
			arenaBytes := len(flat) * 8
			if prec != vecmath.PrecisionF64 {
				qa = vecmath.BuildQuantArena(flat, sh.dim, prec)
				if qa != nil {
					arenaBytes = qa.Bytes()
				}
			}
			for _, par := range parSweep {
				par := par
				qp := measure("ArgMinQuant", effectivePar(par), n, 0, func(b *testing.B) {
					w := parallel.Workers(par, n)
					chunk := (n + w - 1) / w
					chunks := (n + chunk - 1) / chunk
					for i := 0; i < b.N; i++ {
						parallel.ForEach(par, chunks, func(c int) {
							lo := c * chunk
							hi := min(lo+chunk, n)
							if qa != nil {
								vecmath.ArgMinDistanceBatchQuant(view.Slice(lo, hi), flat, norms, qa, bmus[lo:hi], d2s[lo:hi])
							} else {
								vecmath.ArgMinDistanceBatch(view.Slice(lo, hi), flat, norms, bmus[lo:hi], d2s[lo:hi])
							}
						})
					}
				})
				qp.Dim, qp.Units = sh.dim, sh.units
				qp.Precision = prec.String()
				qp.QuantArenaBytes = arenaBytes
				doc.Points = append(doc.Points, qp)
			}
		}
	}
	return doc
}

// parSweep is the worker-bound sweep shared by every bench family,
// overridden by the -p flag. Default: serial and GOMAXPROCS.
var parSweep = []int{1, 0}

// pipelineConfig returns the default pipeline config with every layer's
// Parallelism knob at par.
func pipelineConfig(par int) ghsom.PipelineConfig {
	cfg := ghsom.DefaultPipelineConfig()
	cfg.Parallelism = par
	cfg.Model.Parallelism = par
	cfg.Detector.Parallelism = par
	return cfg
}

// effectivePar resolves the knob for reporting.
func effectivePar(par int) int {
	if par == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return par
}

// inferencePoints measures DetectAll and DetectBatch.
func inferencePoints(records []ghsom.Record) (artifact, error) {
	doc := newArtifact(len(records))
	for _, par := range parSweep {
		pipe, err := ghsom.TrainPipeline(records, pipelineConfig(par))
		if err != nil {
			return artifact{}, err
		}
		effective := effectivePar(par)
		doc.Points = append(doc.Points,
			measure("DetectAll", effective, len(records), 0, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := pipe.DetectAll(records); err != nil {
						b.Fatal(err)
					}
				}
			}),
			measure("DetectBatch", effective, len(records), 0, func(b *testing.B) {
				out := make([]ghsom.Prediction, len(records))
				var err error
				if out, err = pipe.DetectBatch(records, out); err != nil {
					b.Fatal(err) // warm-up outside the timer
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pipe.DetectBatch(records, out); err != nil {
						b.Fatal(err)
					}
				}
			}),
		)
	}
	return doc, nil
}

// trainingPoints measures the som-level flat batch kernel and end-to-end
// pipeline training on the same encoded data set.
func trainingPoints(records []ghsom.Record) (artifact, error) {
	doc := newArtifact(len(records))
	// Encode once through the eval dataplane so TrainBatch sees the real
	// KDD feature matrix, not a synthetic stand-in.
	enc, err := eval.Encode(eval.Dataset{Train: records, Test: records[:1]})
	if err != nil {
		return artifact{}, err
	}
	const somEpochs = 10
	for _, par := range parSweep {
		effective := effectivePar(par)
		doc.Points = append(doc.Points,
			measure("TrainBatch", effective, enc.TrainMat.Rows(), somEpochs, func(b *testing.B) {
				m, err := som.New(5, 5, enc.TrainMat.Cols())
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < m.Units(); i++ {
					if err := m.SetWeight(i, enc.TrainMat.Row(i%enc.TrainMat.Rows())); err != nil {
						b.Fatal(err)
					}
				}
				cfg := som.TrainConfig{
					Epochs: somEpochs, Alpha0: 0.5, AlphaEnd: 0.01,
					RadiusEnd: 0.5, Kernel: som.KernelGaussian,
					Decay: som.DecayExponential, Parallelism: par,
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.TrainBatchView(enc.TrainMat.View(), cfg); err != nil {
						b.Fatal(err)
					}
				}
			}),
			measure("TrainPipeline", effective, len(records), 0, func(b *testing.B) {
				cfg := pipelineConfig(par)
				for i := 0; i < b.N; i++ {
					if _, err := ghsom.TrainPipeline(records, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}),
		)
	}
	return doc, nil
}

// routingPoints measures the hierarchy descent itself — the tree-walk
// RouteTrainedFlat against the compiled model's table-driven
// RouteTrainedFlat — at P=1 and GOMAXPROCS, on the model a production
// pipeline actually serves (TrainPipeline with the default label cap and
// batch rule) and the records it encounters. The compiled path is the
// serving dataplane; the tree walk is the pre-compilation baseline.
func routingPoints(records []ghsom.Record) (artifact, error) {
	doc := newArtifact(len(records))
	pipe, err := ghsom.TrainPipeline(records, pipelineConfig(1))
	if err != nil {
		return artifact{}, err
	}
	model, compiled := pipe.Model(), pipe.Compiled()
	n := len(records)
	flat := make([]float64, 0, n*compiled.Dim())
	for i := range records {
		x, err := pipe.Encode(&records[i])
		if err != nil {
			return artifact{}, err
		}
		flat = append(flat, x...)
	}
	outPlaces := make([]core.Placement, n)
	for _, par := range parSweep {
		par := par
		effective := effectivePar(par)
		doc.Points = append(doc.Points,
			measure("RouteTree", effective, n, 0, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := model.RouteTrainedFlat(flat, n, outPlaces, par); err != nil {
						b.Fatal(err)
					}
				}
			}),
			measure("RouteCompiled", effective, n, 0, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := compiled.RouteTrainedFlat(flat, n, outPlaces, par); err != nil {
						b.Fatal(err)
					}
				}
			}),
		)
	}
	return doc, nil
}

// clusterPoints measures the distributed serving tier over in-process
// replicas: one direct-to-replica HTTP baseline ("ServeDirect") against
// the gateway fronting 1–3 replicas ("Gateway-r1".."Gateway-r3"), all on
// the same NDJSON workload with concurrent clients. The r1 point minus
// the direct point is the coordinator's routing overhead; r2/r3 show the
// fan-out headroom. Parallelism reports the replica count for gateway
// points.
func clusterPoints(records []ghsom.Record) (artifact, error) {
	pipe, err := ghsom.TrainPipeline(records, pipelineConfig(0))
	if err != nil {
		return artifact{}, err
	}
	const batch = 256
	kddRecs := make([]kdd.Record, batch)
	for i := range kddRecs {
		kddRecs[i] = kdd.Record(records[i%len(records)])
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range kddRecs {
		if err := enc.Encode(&kddRecs[i]); err != nil {
			return artifact{}, err
		}
	}
	payload := body.Bytes()

	startReplicas := func(n int) ([]*serve.Registry, []*httptest.Server, []string, error) {
		regs := make([]*serve.Registry, n)
		srvs := make([]*httptest.Server, n)
		urls := make([]string, n)
		for i := 0; i < n; i++ {
			regs[i] = serve.NewRegistry(serve.Config{
				Instance: fmt.Sprintf("bench-replica-%d", i),
				MaxBatch: 256,
			})
			if _, _, err := regs[i].Swap(serve.DefaultModelName, pipe); err != nil {
				return nil, nil, nil, err
			}
			srvs[i] = httptest.NewServer(regs[i].Mux())
			urls[i] = srvs[i].URL
		}
		return regs, srvs, urls, nil
	}
	post := func(b *testing.B, client *http.Client, target string) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := client.Post(target+"/detect", "application/x-ndjson", bytes.NewReader(payload))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		})
	}

	doc := newArtifact(len(records))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()

	// Baseline: the client talks to one replica with no coordinator.
	regs, srvs, urls, err := startReplicas(1)
	if err != nil {
		return artifact{}, err
	}
	doc.Points = append(doc.Points, measure("ServeDirect", 1, batch, 0, func(b *testing.B) {
		post(b, client, urls[0])
	}))
	srvs[0].Close()
	regs[0].Close()

	for n := 1; n <= 3; n++ {
		regs, srvs, urls, err := startReplicas(n)
		if err != nil {
			return artifact{}, err
		}
		gw, err := cluster.New(cluster.Config{
			Replicas:    urls,
			Instance:    "bench-gateway",
			Replication: n,
			HealthEvery: 250 * time.Millisecond,
		})
		if err != nil {
			return artifact{}, err
		}
		gw.CheckNow()
		front := httptest.NewServer(gw.Handler())
		doc.Points = append(doc.Points, measure(fmt.Sprintf("Gateway-r%d", n), n, batch, 0, func(b *testing.B) {
			post(b, client, front.URL)
		}))
		front.Close()
		gw.Close()
		client.CloseIdleConnections()
		for i := range srvs {
			srvs[i].Close()
			regs[i].Close()
		}
	}
	return doc, nil
}

func newArtifact(records int) artifact {
	return artifact{
		Schema:     1,
		Generated:  time.Now().UTC(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Records:    records,
	}
}

func writeArtifact(path string, doc artifact) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, p := range doc.Points {
		if p.Epochs > 0 {
			fmt.Printf("%-14s P=%-2d %12.0f rec·epochs/sec %10.1f allocs/epoch\n",
				p.Name, p.Parallelism, p.RecordEpochsPerSec, p.AllocsPerEpoch)
		} else if p.Precision != "" {
			fmt.Printf("%-14s P=%-2d dim=%-3d units=%-4d prec=%-4s %12.0f rows/sec %10d arena B\n",
				p.Name, p.Parallelism, p.Dim, p.Units, p.Precision, p.RecordsPerSec, p.QuantArenaBytes)
		} else if p.Units > 0 {
			fmt.Printf("%-14s P=%-2d dim=%-3d units=%-3d %12.0f rows/sec\n",
				p.Name, p.Parallelism, p.Dim, p.Units, p.RecordsPerSec)
		} else if p.Efficiency > 0 {
			fmt.Printf("%-14s P=%-2d %12.0f records/sec %6.2f efficiency\n",
				p.Name, p.Parallelism, p.RecordsPerSec, p.Efficiency)
		} else {
			fmt.Printf("%-14s P=%-2d %12.0f records/sec %10.4f allocs/record\n",
				p.Name, p.Parallelism, p.RecordsPerSec, p.AllocsPerRecord)
		}
	}
	return nil
}

// measure runs one benchmark point via testing.Benchmark (which scales
// b.N toward its default ~1s measuring window). epochs > 0 marks a
// training point and fills the per-epoch measures.
func measure(name string, par, nRecords, epochs int, fn func(b *testing.B)) point {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	recsPerOp := float64(nRecords)
	perOp := res.T.Seconds() / float64(res.N)
	p := point{
		Name:            name,
		Parallelism:     par,
		BatchRecords:    nRecords,
		Epochs:          epochs,
		Iterations:      res.N,
		NsPerOp:         res.NsPerOp(),
		RecordsPerSec:   recsPerOp / perOp,
		AllocsPerRecord: float64(res.AllocsPerOp()) / recsPerOp,
		BytesPerRecord:  float64(res.AllocedBytesPerOp()) / recsPerOp,
	}
	if epochs > 0 {
		p.RecordEpochsPerSec = recsPerOp * float64(epochs) / perOp
		p.AllocsPerEpoch = float64(res.AllocsPerOp()) / float64(epochs)
	}
	return p
}
