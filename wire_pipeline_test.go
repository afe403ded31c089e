package ghsom

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ghsom/internal/kdd"
)

// wireDetectRecords returns a detection slice exercising the columnar
// path's categorical edge cases: services the encoder never saw (which
// must fall into the "other" bucket identically on both wire formats).
func wireDetectRecords(t *testing.T) []Record {
	recs := testRecords(t)
	out := append([]Record(nil), recs[:4096]...)
	for i := range out {
		switch i % 97 {
		case 13:
			out[i].Service = "uucp_path" // real KDD service, absent from training
		case 51:
			out[i].Service = "weird_svc_42" // arbitrary unseen service
		}
	}
	return out
}

// TestDetectColumnarMatchesDetectBatch pins the wire-format equivalence
// contract: the same records, sent as NDJSON-style Record structs and as
// a columnar frame, produce byte-identical verdicts at every Parallelism
// setting — including records with services unseen at training time.
func TestDetectColumnarMatchesDetectBatch(t *testing.T) {
	recs := wireDetectRecords(t)
	pipe, err := TrainPipeline(testRecords(t), quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := WriteColumnarBatch(&frame, recs, ColumnarWriteOptions{Labels: true}); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 3, 0} {
		pipe.SetParallelism(par)
		want, err := pipe.DetectBatch(recs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var cb ColumnarBatch
		if err := ReadColumnarBatch(bytes.NewReader(frame.Bytes()), &cb, DefaultColumnarLimits()); err != nil {
			t.Fatal(err)
		}
		if cb.Rows() != len(recs) {
			t.Fatalf("frame rows = %d, want %d", cb.Rows(), len(recs))
		}
		got, err := pipe.DetectColumnar(&cb, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("par %d record %d: columnar %+v vs batch %+v", par, i, got[i], want[i])
			}
		}
		// The frame's labels must survive the trip for eval tooling.
		if cb.Label(13) != recs[13].Label {
			t.Fatalf("label 13 = %q, want %q", cb.Label(13), recs[13].Label)
		}
	}
}

// TestDetectColumnarRejectsUnknownProtocol checks error parity: a record
// both paths must reject is rejected by both, naming the same position.
func TestDetectColumnarRejectsUnknownProtocol(t *testing.T) {
	recs := wireDetectRecords(t)[:64]
	recs[37].Protocol = "sctp"
	pipe, err := TrainPipeline(testRecords(t), quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.DetectBatch(recs, nil); err == nil ||
		!strings.Contains(err.Error(), "record 37") {
		t.Fatalf("DetectBatch error = %v, want record 37", err)
	}
	var frame bytes.Buffer
	if err := WriteColumnarBatch(&frame, recs, ColumnarWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	var cb ColumnarBatch
	if err := ReadColumnarBatch(bytes.NewReader(frame.Bytes()), &cb, DefaultColumnarLimits()); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.DetectColumnar(&cb, nil); err == nil ||
		!strings.Contains(err.Error(), "record 37") {
		t.Fatalf("DetectColumnar error = %v, want record 37", err)
	}
}

// TestLoadPipelineFileMapped pins the zero-copy load contract: a mapped
// load views the model arena straight out of the file (no copy at
// startup), classifies byte-identically to a stream load on both wire
// formats, re-serializes bit-identically, and rebuilds the pointer tree
// lazily on first Model() call.
func TestLoadPipelineFileMapped(t *testing.T) {
	recs := wireDetectRecords(t)
	pipe, err := TrainPipeline(testRecords(t), quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var env bytes.Buffer
	if err := pipe.Save(&env); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pipeline.bin")
	if err := os.WriteFile(path, env.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	heap, err := LoadPipelineFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if heap.MappedBytes() != 0 {
		t.Fatalf("stream load reports %d mapped bytes", heap.MappedBytes())
	}
	mapped, err := LoadPipelineFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapped.MappedBytes() == 0 {
		t.Fatal("mapped load copied the arena (MappedBytes = 0)")
	}
	wantMapped := 16*pipe.Compiled().Stats().Units + 8*pipe.Compiled().Stats().Units*pipe.Compiled().Dim()
	if mapped.MappedBytes() != wantMapped {
		t.Fatalf("MappedBytes = %d, want %d", mapped.MappedBytes(), wantMapped)
	}

	// Re-serialization from the mapped pipeline must be bit-identical.
	// (Checked before SetParallelism below, which legitimately rewrites
	// the persisted parallelism knob.)
	var again bytes.Buffer
	if err := mapped.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), env.Bytes()) {
		t.Fatalf("mapped pipeline re-saved differently (%d vs %d bytes)", again.Len(), env.Len())
	}

	heap.SetParallelism(1)
	mapped.SetParallelism(1)
	want, err := heap.DetectBatch(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mapped.DetectBatch(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: mapped %+v vs heap %+v", i, got[i], want[i])
		}
	}
	var frame bytes.Buffer
	if err := WriteColumnarBatch(&frame, recs, ColumnarWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	var cb ColumnarBatch
	if err := ReadColumnarBatch(bytes.NewReader(frame.Bytes()), &cb, DefaultColumnarLimits()); err != nil {
		t.Fatal(err)
	}
	colGot, err := mapped.DetectColumnar(&cb, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if colGot[i] != want[i] {
			t.Fatalf("record %d: mapped columnar %+v vs heap batch %+v", i, colGot[i], want[i])
		}
	}

	// The pointer tree is rebuilt on demand and matches the original.
	if got, want := mapped.Model().Stats(), pipe.Model().Stats(); got.Maps != want.Maps ||
		got.Units != want.Units || got.MaxDepth != want.MaxDepth {
		t.Fatalf("lazily rebuilt tree stats %+v, want %+v", got, want)
	}
}

// TestLoadPipelineFileMappedRejectsCorrupt walks truncations of the
// envelope through the mapped loader: error or clean load, never panic.
func TestLoadPipelineFileMappedRejectsCorrupt(t *testing.T) {
	pipe, err := TrainPipeline(testRecords(t), quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var env bytes.Buffer
	if err := pipe.Save(&env); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	raw := env.Bytes()
	for cut := 0; cut < len(raw); cut += 997 {
		path := filepath.Join(dir, "cut.bin")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if p, err := LoadPipelineFile(path, true); err == nil {
			p.Close()
			t.Fatalf("truncation at %d accepted by mapped loader", cut)
		}
	}
	if _, err := LoadPipelineFile(filepath.Join(dir, "absent.bin"), true); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestDetectColumnarSteadyStateAllocs gates the e2e ingestion alloc
// budget: decoding and classifying columnar frames in steady state must
// cost at most 0.05 heap allocations per record.
func TestDetectColumnarSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	recs := testRecords(t)[:2048]
	pipe, err := TrainPipeline(testRecords(t), quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	pipe.SetParallelism(1)
	var frame bytes.Buffer
	if err := WriteColumnarBatch(&frame, recs, ColumnarWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	var cb ColumnarBatch
	out := make([]Prediction, 0, len(recs))
	r := bytes.NewReader(frame.Bytes())
	run := func() {
		r.Reset(frame.Bytes())
		if err := ReadColumnarBatch(r, &cb, DefaultColumnarLimits()); err != nil {
			t.Fatal(err)
		}
		var err error
		out, err = pipe.DetectColumnar(&cb, out)
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools and the frame buffer
	run()
	allocs := testing.AllocsPerRun(10, run)
	if perRecord := allocs / float64(len(recs)); perRecord > 0.05 {
		t.Fatalf("columnar ingest costs %.4f allocs/record (%.0f per %d-row frame), budget 0.05",
			perRecord, allocs, len(recs))
	}
}

// ndjsonBatch decodes records, rendered as NDJSON, into a batch the way
// ghsom-serve's /detect does.
func ndjsonBatch(t *testing.T, recs []Record) *ColumnarBatch {
	t.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cb := new(ColumnarBatch)
	if err := kdd.NewRecordParser(&body).AppendColumnar(cb, 0); err != nil {
		t.Fatal(err)
	}
	return cb
}

// frameBatch writes records as one GHSOMWB1 frame and reads it back.
func frameBatch(t *testing.T, recs []Record) *ColumnarBatch {
	t.Helper()
	var frame bytes.Buffer
	if err := WriteColumnarBatch(&frame, recs, ColumnarWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	cb := new(ColumnarBatch)
	if err := ReadColumnarBatch(&frame, cb, DefaultColumnarLimits()); err != nil {
		t.Fatal(err)
	}
	return cb
}

// TestDetectNDJSONBatchMatchesDetectBatch pins the served NDJSON path:
// records decoded straight into a batch classify byte-identically to
// DetectBatch over the same records at every Parallelism setting.
func TestDetectNDJSONBatchMatchesDetectBatch(t *testing.T) {
	recs := wireDetectRecords(t)
	pipe, err := TrainPipeline(testRecords(t), quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	cb := ndjsonBatch(t, recs)
	for _, par := range []int{1, 3, 0} {
		pipe.SetParallelism(par)
		want, err := pipe.DetectBatch(recs, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pipe.DetectColumnar(cb, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("par %d record %d: NDJSON batch %+v vs batch %+v", par, i, got[i], want[i])
			}
		}
	}
}

// TestDetectLowestBadRecordAcrossFormats pins the lowest-index error
// contract on every record source: with an unknown flag at record 1, a
// NaN after the log transform at record 3 and an unknown protocol at
// record 5, DetectBatch, DetectColumnar over a frame and DetectColumnar
// over a decoded NDJSON body all report record 1 with one message; with
// the flag repaired, all report record 3. The wide layout spreads the
// same faults across chunks.
func TestDetectLowestBadRecordAcrossFormats(t *testing.T) {
	pipe, err := TrainPipeline(testRecords(t), quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []struct {
		name   string
		n, gap int
	}{{"8 records", 8, 1}, {"across chunks", 2048, 300}} {
		recs := append([]Record(nil), wireDetectRecords(t)[:layout.n]...)
		flagAt, nanAt, protoAt := layout.gap, 3*layout.gap, 5*layout.gap
		recs[flagAt].Flag = "BOGUSFLAG"
		recs[nanAt].Count = -2 // log1p(-2) is NaN
		recs[protoAt].Protocol = "bogusproto"
		check := func(want int) {
			t.Helper()
			prefix := fmt.Sprintf("record %d: ", want)
			for _, par := range []int{1, 3} {
				pipe.SetParallelism(par)
				_, batchErr := pipe.DetectBatch(recs, nil)
				if batchErr == nil || !strings.HasPrefix(batchErr.Error(), prefix) {
					t.Fatalf("%s par %d: DetectBatch err %v, want %q...", layout.name, par, batchErr, prefix)
				}
				for name, cb := range map[string]*ColumnarBatch{"frame": frameBatch(t, recs), "NDJSON": ndjsonBatch(t, recs)} {
					if _, err := pipe.DetectColumnar(cb, nil); err == nil || err.Error() != batchErr.Error() {
						t.Fatalf("%s par %d: DetectColumnar over the %s err %v, want %v", layout.name, par, name, err, batchErr)
					}
				}
			}
		}
		check(flagAt)
		recs[flagAt].Flag = recs[0].Flag
		check(nanAt)
	}
	pipe.SetParallelism(0)
}

// TestDetectScoresOutOfRangeValues pins the input contract: only an
// unknown protocol or flag or a non-finite feature after log1p rejects a
// record. A rate above 1 or a small negative volume is scored, the same
// on every record source, while a volume of -1 (log1p = -Inf) fails.
func TestDetectScoresOutOfRangeValues(t *testing.T) {
	pipe, err := TrainPipeline(testRecords(t), quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := append([]Record(nil), wireDetectRecords(t)[:4]...)
	recs[1].SameSrvRate = 5
	recs[2].DstBytes = -0.5
	want, err := pipe.DetectBatch(recs, nil)
	if err != nil {
		t.Fatalf("DetectBatch rejected out-of-range values: %v", err)
	}
	for i := range recs {
		got, err := pipe.Detect(&recs[i])
		if err != nil || got != want[i] {
			t.Fatalf("Detect record %d = %+v, %v; DetectBatch %+v", i, got, err, want[i])
		}
	}
	for name, cb := range map[string]*ColumnarBatch{"frame": frameBatch(t, recs), "NDJSON": ndjsonBatch(t, recs)} {
		got, err := pipe.DetectColumnar(cb, nil)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("DetectColumnar over the %s = %+v, %v; DetectBatch %+v", name, got, err, want)
		}
	}
	recs[2].DstBytes = -1
	if _, err := pipe.DetectBatch(recs, nil); err == nil || !strings.HasPrefix(err.Error(), "record 2: ") {
		t.Fatalf("dst_bytes -1: err %v, want record 2 rejected", err)
	}
}

// TestDetectMergedCtxIsolatesBadBatch checks a merged pass: a batch with
// a bad record fails alone, naming the record by its index in that
// batch, while the batches around it classify exactly as DetectBatch.
func TestDetectMergedCtxIsolatesBadBatch(t *testing.T) {
	recs := wireDetectRecords(t)
	pipe, err := TrainPipeline(testRecords(t), quickPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, bad, last := recs[:300], append([]Record(nil), recs[300:340]...), recs[340:700]
	bad[17].Flag = "BOGUSFLAG"
	batches := []*ColumnarBatch{ndjsonBatch(t, first), ndjsonBatch(t, bad), frameBatch(t, last)}
	errs := make([]error, len(batches))
	for _, par := range []int{1, 3} {
		pipe.SetParallelism(par)
		out, err := pipe.DetectMergedCtx(nil, batches, nil, errs)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(first)+len(bad)+len(last) {
			t.Fatalf("par %d: %d verdicts", par, len(out))
		}
		if errs[0] != nil || errs[2] != nil || errs[1] == nil || !strings.HasPrefix(errs[1].Error(), "record 17: ") {
			t.Fatalf("par %d: errs %v, want only the middle batch's record 17", par, errs)
		}
		for _, part := range []struct {
			recs []Record
			off  int
		}{{first, 0}, {last, len(first) + len(bad)}} {
			want, err := pipe.DetectBatch(part.recs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if out[part.off+i] != want[i] {
					t.Fatalf("par %d merged row %d: %+v, want %+v", par, part.off+i, out[part.off+i], want[i])
				}
			}
		}
	}
	pipe.SetParallelism(0)
}
