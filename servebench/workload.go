package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"ghsom"
	"ghsom/internal/kdd"
)

// workload is one traffic shape. Rates are absolute numbers fixed on the
// 2-CPU host the benchmark was calibrated on, never fractions of a run's
// own capacity.
type workload struct {
	name       string
	gateway    bool      // clients talk to a gateway fronting two replicas
	bulk       bool      // closed loop of columnar bodies instead of open-loop NDJSON
	largeModel bool      // Tau1 0.3 and MaxMapUnits 400 instead of the production model
	nominalRPS float64   // fixed rate of the latency measurement (live only)
	ladder     []float64 // ascending rates in requests per second (live only)
}

// liveLadder is the rate ladder both live workloads climb.
var liveLadder = []float64{500, 550, 600, 650, 700, 750, 800}

var workloads = []workload{
	{name: "live-direct", nominalRPS: 200, ladder: liveLadder},
	{name: "live-gateway", gateway: true, nominalRPS: 200, ladder: liveLadder},
	{name: "bulk-large", bulk: true, largeModel: true},
}

// Request shapes.
const (
	liveRecords = 16   // NDJSON records per live request
	bulkFrames  = 8    // columnar frames per bulk request
	bulkRows    = 1024 // rows per columnar frame
)

// p99Limit is the latency limit the rate ladder holds p99 to.
const p99Limit = 50 * time.Millisecond

func (w workload) pipelineConfig() ghsom.PipelineConfig {
	cfg := ghsom.DefaultPipelineConfig()
	if w.largeModel {
		cfg.Model.Tau1 = 0.3
		cfg.Model.MaxMapUnits = 400
	}
	return cfg
}

// request is one prepared /detect body over records[lo:hi] of the sent
// traffic, and the reference response it must produce.
type request struct {
	body   []byte
	ctype  string
	lo, hi int
	want   []byte
}

// buildRequests cuts the traffic into the workload's request bodies;
// a trailing partial request is dropped.
func buildRequests(w workload, traffic []ghsom.Record) ([]request, error) {
	per := liveRecords
	if w.bulk {
		per = bulkFrames * bulkRows
	}
	var reqs []request
	for lo := 0; lo+per <= len(traffic); lo += per {
		var buf bytes.Buffer
		r := request{lo: lo, hi: lo + per, ctype: "application/x-ndjson"}
		if w.bulk {
			r.ctype = kdd.ColumnarContentType
			for f := lo; f < r.hi; f += bulkRows {
				if err := ghsom.WriteColumnarBatch(&buf, traffic[f:f+bulkRows], ghsom.ColumnarWriteOptions{}); err != nil {
					return nil, fmt.Errorf("columnar body: %w", err)
				}
			}
		} else {
			enc := json.NewEncoder(&buf)
			for i := lo; i < r.hi; i++ {
				if err := enc.Encode(&traffic[i]); err != nil {
					return nil, fmt.Errorf("ndjson body: %w", err)
				}
			}
		}
		r.body = buf.Bytes()
		reqs = append(reqs, r)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("traffic of %d records fills no %d-record request", len(traffic), per)
	}
	return reqs, nil
}

// fillReference computes each request's expected response with the
// in-process DetectBatch of the reference pipeline, encoded the way the
// server encodes verdicts, and returns the SHA-256 of all of them in
// request order: two commits serve identical verdicts exactly when their
// digests match and every response compared equal.
func fillReference(ref *ghsom.Pipeline, traffic []ghsom.Record, reqs []request) (string, error) {
	preds, err := ref.DetectBatch(traffic[:reqs[len(reqs)-1].hi], nil)
	if err != nil {
		return "", fmt.Errorf("reference verdicts: %w", err)
	}
	h := sha256.New()
	for i := range reqs {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for j := reqs[i].lo; j < reqs[i].hi; j++ {
			if err := enc.Encode(&preds[j]); err != nil {
				return "", fmt.Errorf("reference verdicts: %w", err)
			}
		}
		reqs[i].want = buf.Bytes()
		h.Write(reqs[i].want)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
