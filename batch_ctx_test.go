package ghsom

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"ghsom/internal/leakcheck"
)

// ctxTestPipe caches one trained pipeline and its records for the
// ctx-dataplane tests of this file.
var ctxTestPipe struct {
	once sync.Once
	pipe *Pipeline
	recs []Record
	err  error
}

func testPipelineAndRecords(t *testing.T) (*Pipeline, []Record) {
	t.Helper()
	recs := testRecords(t)
	ctxTestPipe.once.Do(func() {
		ctxTestPipe.recs = recs
		ctxTestPipe.pipe, ctxTestPipe.err = TrainPipeline(recs, quickPipelineConfig())
	})
	if ctxTestPipe.err != nil {
		t.Fatal(ctxTestPipe.err)
	}
	return ctxTestPipe.pipe, ctxTestPipe.recs
}

// TestDetectMergedCtxCanceledStopsAndDoesNotLeak drives canceled
// merged passes — pre-canceled and canceled mid-flight — over NDJSON and
// frame batches at several parallelism settings and verifies ctx.Err()
// is reported and no worker goroutines outlive the call.
func TestDetectMergedCtxCanceledStopsAndDoesNotLeak(t *testing.T) {
	leakcheck.Check(t)
	pipe, recs := testPipelineAndRecords(t)
	batches := make([]*ColumnarBatch, 8)
	for i := range batches {
		if i%2 == 0 {
			batches[i] = ndjsonBatch(t, recs)
		} else {
			batches[i] = frameBatch(t, recs)
		}
	}
	errs := make([]error, len(batches))
	for _, par := range []int{1, 4, 0} {
		pipe.SetParallelism(par)
		// Pre-canceled: no chunk may run; the canonical error comes back.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := pipe.DetectMergedCtx(ctx, batches, nil, errs); !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d pre-canceled err = %v, want context.Canceled", par, err)
		}
		// Cancel mid-flight: the call must return promptly, either whole
		// (nil — the race went to completion) or canceled.
		ctx2, cancel2 := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := pipe.DetectMergedCtx(ctx2, batches, nil, errs)
			done <- err
		}()
		cancel2()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d mid-flight err = %v, want nil (already done) or Canceled", par, err)
		}
	}
	pipe.SetParallelism(0)
}

// TestDetectBatchRejectsNaNPoison pins the inference-side non-finite
// guard on the record path: a NaN-poisoned numeric feature fails its own
// record by index instead of silently poisoning the verdict.
func TestDetectBatchRejectsNaNPoison(t *testing.T) {
	pipe, recs := testPipelineAndRecords(t)
	eval := append([]Record(nil), recs[:10]...)
	eval[4].SrcBytes = -7 // log1p(-7) = NaN after the log transform
	_, err := pipe.DetectBatch(eval, nil)
	if err == nil || !strings.Contains(err.Error(), "record 4") || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("err = %v, want non-finite failure naming record 4", err)
	}
	// The clean prefix still classifies.
	if _, err := pipe.DetectBatch(eval[:4], nil); err != nil {
		t.Fatal(err)
	}
	// The single-record entry points run the same guard: DetectBatch is
	// byte-identical to Detect per record, errors included.
	nonFinite := func(api string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("%s err = %v, want non-finite failure", api, err)
		}
	}
	_, err = pipe.Detect(&eval[4])
	nonFinite("Detect", err)
	_, err = pipe.Explain(&eval[4], 3)
	nonFinite("Explain", err)
	if _, err := pipe.Detect(&eval[3]); err != nil {
		t.Fatal(err)
	}
}

// TestDetectColumnarRejectsNaNPoison pins the guard on the wire path: a
// frame whose raw float64 column carries NaN (inexpressible in JSON, but
// trivial in the columnar format) fails with the record named.
func TestDetectColumnarRejectsNaNPoison(t *testing.T) {
	pipe, recs := testPipelineAndRecords(t)
	poison := append([]Record(nil), recs[:8]...)
	poison[5].SameSrvRate = math.NaN()
	var buf bytes.Buffer
	if err := WriteColumnarBatch(&buf, poison, ColumnarWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	var cb ColumnarBatch
	if err := ReadColumnarBatch(&buf, &cb, DefaultColumnarLimits()); err != nil {
		t.Fatal(err)
	}
	_, err := pipe.DetectColumnar(&cb, nil)
	if err == nil || !strings.Contains(err.Error(), "record 5") || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("err = %v, want non-finite failure naming record 5", err)
	}
}
