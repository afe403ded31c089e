package ghsom

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
