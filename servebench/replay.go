package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime/metrics"
	"time"

	"ghsom"
	"ghsom/internal/core"
	"ghsom/internal/kdd"
	"ghsom/internal/preprocess"
)

// replayMaxRecords bounds the served records the stage replay uses, and
// replayBudget is how long it repeats over them.
const (
	replayMaxRecords = 16384
	replayBudget     = time.Second
)

// replayBatch is one served batch prepared for every stage.
type replayBatch struct {
	recs   []kdd.Record
	ndjson []byte             // the batch as NDJSON
	frame  []byte             // the batch as one GHSOMWB1 frame
	cb     *kdd.ColumnarBatch // the frame, decoded
	rows   []float64          // encoded, then scaled in place
}

// Replay stages, in the order one batch passes through them.
const (
	stDecodeNDJSON = iota
	stDecodeColumnar
	stEncode
	stScale
	stRoute
	stClassify // route plus verdict
	stDetect
	stVerdictJSON
	numStages
)

// replay times each layer's public function over the records the
// replicas served, cut into batches of the served size, at Parallelism
// 1 so the stages' ns per record add up. Each batch runs the whole chain
// in turn, so every stage finds its input as warm in cache as it is
// inside DetectBatch. Encoder and scaler are rebuilt from the training
// records the way TrainPipeline builds them, and the replayed verdicts
// must equal the pipeline's.
func (r *run) replay(bodies []capturedBody, servedBatch float64) error {
	recs, err := decodeBodies(bodies)
	if err != nil {
		return err
	}
	if len(recs) > replayMaxRecords {
		recs = recs[:replayMaxRecords]
	}
	size := int(math.Round(servedBatch))
	if r.w.bulk {
		size = bulkRows
	}
	size = max(size, 1)
	pipe, err := ghsom.LoadPipelineFile(filepath.Join(r.dir, "model.bin"), false)
	if err != nil {
		return err
	}
	defer pipe.Close()
	pipe.SetParallelism(1)
	prec, _ := ghsom.ParsePrecision("auto")
	pipe.SetBMUPrecision(prec)
	enc := kdd.NewEncoder(r.train, kdd.EncoderConfig{LogTransform: r.w.pipelineConfig().LogTransform})
	d := enc.Dim()
	scaler, err := fitScaler(enc, r.train)
	if err != nil {
		return err
	}
	var batches []*replayBatch
	for lo := 0; lo < len(recs); lo += size {
		b := &replayBatch{recs: recs[lo:min(lo+size, len(recs))]}
		var nd, fr bytes.Buffer
		je := json.NewEncoder(&nd)
		for i := range b.recs {
			if err := je.Encode(&b.recs[i]); err != nil {
				return err
			}
		}
		if err := kdd.WriteColumnarBatch(&fr, b.recs, kdd.ColumnarWriteOptions{}); err != nil {
			return err
		}
		b.ndjson, b.frame = nd.Bytes(), fr.Bytes()
		b.cb = new(kdd.ColumnarBatch)
		if err := kdd.ReadColumnarBatch(bytes.NewReader(b.frame), b.cb, kdd.DefaultColumnarLimits); err != nil {
			return err
		}
		b.rows = make([]float64, len(b.recs)*d)
		batches = append(batches, b)
	}

	parser := kdd.NewRecordParser(nil)
	var decoded []kdd.Record
	var cb kdd.ColumnarBatch
	places := make([]core.Placement, size)
	preds := make([]ghsom.Prediction, size)
	out := make([]ghsom.Prediction, size)
	det := pipe.Detector()
	var buf bytes.Buffer
	je := json.NewEncoder(&buf)
	stages := [numStages]func(b *replayBatch) error{
		stDecodeNDJSON: func(b *replayBatch) (err error) {
			parser.Reset(bytes.NewReader(b.ndjson))
			decoded, err = parser.AppendAll(decoded[:0], len(b.recs))
			return err
		},
		stDecodeColumnar: func(b *replayBatch) error {
			return kdd.ReadColumnarBatch(bytes.NewReader(b.frame), &cb, kdd.DefaultColumnarLimits)
		},
		// Live requests encode records one by one (DetectBatch); columnar
		// frames encode column runs (DetectColumnar).
		stEncode: func(b *replayBatch) error {
			if r.w.bulk {
				if err := enc.BindColumnar(b.cb); err != nil {
					return err
				}
				return enc.EncodeColumnarRows(b.cb, 0, len(b.recs), b.rows)
			}
			for i := range b.recs {
				if err := enc.EncodeInto(&b.recs[i], b.rows[i*d:(i+1)*d]); err != nil {
					return err
				}
			}
			return nil
		},
		stScale: func(b *replayBatch) error { return scaler.TransformBatch(b.rows, d) },
		stRoute: func(b *replayBatch) error {
			return pipe.Compiled().RouteTrainedFlat(b.rows, len(b.recs), places, 1)
		},
		stClassify: func(b *replayBatch) error { return det.ClassifyBatchAt(b.rows, len(b.recs), d, preds, 1) },
		stDetect: func(b *replayBatch) (err error) {
			if r.w.bulk {
				out, err = pipe.DetectColumnar(b.cb, out)
			} else {
				out, err = pipe.DetectBatch(b.recs, out)
			}
			return err
		},
		stVerdictJSON: func(b *replayBatch) error {
			buf.Reset()
			for i := range b.recs {
				if err := je.Encode(&preds[i]); err != nil {
					return err
				}
			}
			return nil
		},
	}
	var spent [numStages]time.Duration
	done := 0
	for start := time.Now(); time.Since(start) < replayBudget; {
		for _, b := range batches {
			for st, fn := range stages {
				t := time.Now()
				if err := fn(b); err != nil {
					return fmt.Errorf("replay stage %d: %w", st, err)
				}
				spent[st] += time.Since(t)
			}
			// The replayed chain must reach the pipeline's verdicts.
			for i := range b.recs {
				if preds[i] != out[i] {
					r.res.Correct = false
					return fmt.Errorf("replayed stages disagree with the pipeline at record %d", i)
				}
			}
		}
		done += len(recs)
	}
	ns := func(st int) float64 { return float64(spent[st].Nanoseconds()) / float64(done) }

	// The allocation count of the detect call alone, over one more pass.
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(allocs)
	a0 := allocs[0].Value.Uint64()
	for _, b := range batches {
		if err := stages[stDetect](b); err != nil {
			return err
		}
	}
	metrics.Read(allocs)

	r.set("kdd.decode_ndjson_ns", ns(stDecodeNDJSON), "ns/record")
	r.set("kdd.decode_columnar_ns", ns(stDecodeColumnar), "ns/record")
	r.set("kdd.encode_ns", ns(stEncode), "ns/record")
	r.set("preprocess.scale_ns", ns(stScale), "ns/record")
	r.set("core.route_ns", ns(stRoute), "ns/record")
	r.set("anomaly.verdict_ns", ns(stClassify)-ns(stRoute), "ns/record")
	r.set("ghsom.detect_ns", ns(stDetect), "ns/record")
	r.set("ghsom.detect_self_ns", ns(stDetect)-ns(stEncode)-ns(stScale)-ns(stClassify), "ns/record")
	r.set("ghsom.detect_allocs", float64(allocs[0].Value.Uint64()-a0)/float64(len(recs)), "allocs/record")
	r.set("serve.verdict_json_ns", ns(stVerdictJSON), "ns/record")
	r.fact("replay: %d records in batches of %d at Parallelism 1, %d passes", len(recs), size, done/len(recs))
	return nil
}

// fitScaler rebuilds the pipeline's scaler: min-max over the encoded,
// unscaled training records.
func fitScaler(enc *kdd.Encoder, train []ghsom.Record) (*preprocess.MinMaxScaler, error) {
	d := enc.Dim()
	flat := make([]float64, len(train)*d)
	if err := enc.EncodeBatch(train, flat); err != nil {
		return nil, err
	}
	rows := make([][]float64, len(train))
	for i := range rows {
		rows[i] = flat[i*d : (i+1)*d]
	}
	s := &preprocess.MinMaxScaler{}
	if err := s.Fit(rows); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeBodies turns the captured request bodies back into records.
func decodeBodies(bodies []capturedBody) ([]kdd.Record, error) {
	var out []kdd.Record
	for _, b := range bodies {
		if b.ctype != kdd.ColumnarContentType {
			recs, err := kdd.ReadRecordsNDJSON(bytes.NewReader(b.body), nil, 1<<20)
			if err != nil {
				return nil, err
			}
			out = append(out, recs...)
			continue
		}
		rd := bytes.NewReader(b.body)
		var cb kdd.ColumnarBatch
		for {
			err := kdd.ReadColumnarBatch(rd, &cb, kdd.DefaultColumnarLimits)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			for i := 0; i < cb.Rows(); i++ {
				rec, err := cb.Record(i)
				if err != nil {
					return nil, err
				}
				out = append(out, rec)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("replay: the replicas served no records")
	}
	return out, nil
}
