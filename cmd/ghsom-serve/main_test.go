package main

// CLI-level tests: the stdin dataplane, flag validation, and the mmap
// load path. The registry/batcher/HTTP surface is tested in
// internal/serve, which this command is a thin shell over.

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ghsom"
	"ghsom/internal/kdd"
	"ghsom/internal/trafficgen"
)

// servePipe caches one trained pipeline and its generated records across
// the tests of this package.
var servePipe struct {
	once sync.Once
	pipe *ghsom.Pipeline
	recs []kdd.Record
	err  error
}

func testPipeline(t *testing.T) (*ghsom.Pipeline, []kdd.Record) {
	t.Helper()
	if testing.Short() {
		t.Skip("serving integration test; skipped with -short")
	}
	servePipe.once.Do(func() {
		recs, err := trafficgen.Generate(trafficgen.Small(71))
		if err != nil {
			servePipe.err = err
			return
		}
		cfg := ghsom.DefaultPipelineConfig()
		cfg.Model.EpochsPerGrowth = 3
		cfg.Model.FineTuneEpochs = 3
		cfg.Model.MaxGrowIters = 6
		cfg.Model.MaxDepth = 3
		cfg.TrainCapPerLabel = 800
		servePipe.pipe, servePipe.err = ghsom.TrainPipeline(recs, cfg)
		servePipe.recs = recs
	})
	if servePipe.err != nil {
		t.Fatal(servePipe.err)
	}
	return servePipe.pipe, servePipe.recs
}

// ndjson renders records as one JSON document per line.
func ndjson(t *testing.T, recs []kdd.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// decodePreds parses an NDJSON prediction stream.
func decodePreds(t *testing.T, r io.Reader) []ghsom.Prediction {
	t.Helper()
	dec := json.NewDecoder(r)
	var out []ghsom.Prediction
	for {
		var p ghsom.Prediction
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestServeStdin drives the stdin→stdout NDJSON dataplane and checks
// output order and equivalence, and that the verdict bytes are exactly
// what json.Encoder writes for the direct path's predictions.
func TestServeStdin(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[200:500]
	var out bytes.Buffer
	if err := serveStdin(pipe, 64, bytes.NewReader(ndjson(t, eval)), &out); err != nil {
		t.Fatal(err)
	}
	want, err := pipe.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes bytes.Buffer
	enc := json.NewEncoder(&wantBytes)
	for i := range want {
		if err := enc.Encode(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out.Bytes(), wantBytes.Bytes()) {
		t.Fatal("stdin verdict bytes differ from json.Encoder's")
	}
	preds := decodePreds(t, &out)
	if len(preds) != len(want) {
		t.Fatalf("got %d predictions, want %d", len(preds), len(want))
	}
	for i := range preds {
		if preds[i] != want[i] {
			t.Fatalf("record %d: stdin %+v, direct %+v", i, preds[i], want[i])
		}
	}
}

func TestServeStdinRejectsGarbage(t *testing.T) {
	pipe, _ := testPipeline(t)
	err := serveStdin(pipe, 8, strings.NewReader("{\"Protocol\":\"tcp\"}\nnot-json\n"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("err = %v, want record 2 parse failure", err)
	}
}

func TestRunExampleAndFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-example"}, nil, &buf); err != nil {
		t.Fatal(err)
	}
	var rec kdd.Record
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("example output not a record: %v", err)
	}
	if rec.Protocol != "tcp" || rec.Service == "" {
		t.Errorf("example record = %+v", rec)
	}
	if err := run([]string{"-batch", "0", "-model", "nope.json"}, nil, io.Discard); err == nil {
		t.Error("batch 0 accepted")
	}
	if err := run([]string{"-model", "/nonexistent/model.json"}, nil, io.Discard); err == nil {
		t.Error("missing model accepted")
	}
}

// TestDefaultInstance pins the hostname:port fallback of -instance.
func TestDefaultInstance(t *testing.T) {
	host, err := os.Hostname()
	if err != nil {
		t.Skip("no hostname")
	}
	if got := defaultInstance(":8741"); got != host+":8741" {
		t.Errorf("defaultInstance(\":8741\") = %q, want %q", got, host+":8741")
	}
	if got := defaultInstance("10.0.0.7:9000"); got != "10.0.0.7:9000" {
		t.Errorf("defaultInstance(\"10.0.0.7:9000\") = %q", got)
	}
}

// TestServeMmapFlag runs the real CLI entry with -mmap over a saved
// envelope on the stdin dataplane, proving the mapped load path serves
// identical verdicts end to end.
func TestServeMmapFlag(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[600:700]
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-model", path, "-mmap", "-stdin", "-parallelism", "1"},
		bytes.NewReader(ndjson(t, eval)), &out)
	if err != nil {
		t.Fatal(err)
	}
	preds := decodePreds(t, &out)
	want, err := pipe.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(want) {
		t.Fatalf("got %d predictions, want %d", len(preds), len(want))
	}
	for i := range preds {
		if preds[i] != want[i] {
			t.Fatalf("record %d: mmap stdin %+v, direct %+v", i, preds[i], want[i])
		}
	}
	if err := run([]string{"-model", path, "-max-body", "0"}, nil, io.Discard); err == nil {
		t.Error("zero -max-body accepted")
	}
}
