package kdd

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// ingestCorpus renders n deterministic records in both wire formats.
func ingestCorpus(tb testing.TB, n int) (records []Record, ndjson, columnar []byte) {
	tb.Helper()
	records = columnarTestRecords(n)
	var nd bytes.Buffer
	enc := json.NewEncoder(&nd)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			tb.Fatal(err)
		}
	}
	var col bytes.Buffer
	if err := WriteColumnarBatch(&col, records, ColumnarWriteOptions{}); err != nil {
		tb.Fatal(err)
	}
	return records, nd.Bytes(), col.Bytes()
}

// ingestNDJSON parses the NDJSON corpus and encodes every record into
// flat — the legacy ingestion dataplane (with the pooled fast parser).
func ingestNDJSON(tb testing.TB, p *RecordParser, enc *Encoder, ndjson []byte, rec *Record, flat []float64) int {
	tb.Helper()
	p.Reset(bytes.NewReader(ndjson))
	d := enc.Dim()
	n := 0
	for {
		if err := p.Next(rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			tb.Fatal(err)
		}
		if err := enc.EncodeInto(rec, flat[n*d:(n+1)*d]); err != nil {
			tb.Fatal(err)
		}
		n++
	}
	return n
}

// ingestColumnar parses the columnar corpus and encodes every record
// into flat — the zero-copy ingestion dataplane.
func ingestColumnar(tb testing.TB, cb *ColumnarBatch, enc *Encoder, columnar []byte, flat []float64) int {
	tb.Helper()
	if err := ReadColumnarBatch(bytes.NewReader(columnar), cb, DefaultColumnarLimits); err != nil {
		tb.Fatal(err)
	}
	if err := enc.BindColumnar(cb); err != nil {
		tb.Fatal(err)
	}
	if err := enc.EncodeColumnarRows(cb, 0, cb.Rows(), flat); err != nil {
		tb.Fatal(err)
	}
	return cb.Rows()
}

func BenchmarkIngestNDJSON(b *testing.B) {
	records, ndjson, _ := ingestCorpus(b, 4096)
	enc := NewEncoder(records, EncoderConfig{LogTransform: true})
	flat := make([]float64, len(records)*enc.Dim())
	p := NewRecordParser(bytes.NewReader(ndjson))
	var rec Record
	b.SetBytes(int64(len(ndjson)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ingestNDJSON(b, p, enc, ndjson, &rec, flat); got != len(records) {
			b.Fatalf("parsed %d records, want %d", got, len(records))
		}
	}
}

func BenchmarkIngestNDJSONStdlib(b *testing.B) {
	records, ndjson, _ := ingestCorpus(b, 4096)
	enc := NewEncoder(records, EncoderConfig{LogTransform: true})
	flat := make([]float64, len(records)*enc.Dim())
	d := enc.Dim()
	b.SetBytes(int64(len(ndjson)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := json.NewDecoder(bytes.NewReader(ndjson))
		n := 0
		for dec.More() {
			var rec Record
			if err := dec.Decode(&rec); err != nil {
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
}

func BenchmarkIngestColumnar(b *testing.B) {
	records, _, columnar := ingestCorpus(b, 4096)
	enc := NewEncoder(records, EncoderConfig{LogTransform: true})
	flat := make([]float64, len(records)*enc.Dim())
	var cb ColumnarBatch
	b.SetBytes(int64(len(columnar)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ingestColumnar(b, &cb, enc, columnar, flat); got != len(records) {
			b.Fatalf("parsed %d records, want %d", got, len(records))
		}
	}
}

// BenchmarkReadRecordsBody decodes 16-record NDJSON request bodies the
// way ghsom-serve's /detect does: a reused parser draining each body
// with AppendAll(nil, …). One op is one body.
func BenchmarkReadRecordsBody(b *testing.B) {
	const bodyRecords = 16
	_, ndjson, _ := ingestCorpus(b, 64*bodyRecords)
	var bodies [][]byte
	for rest := ndjson; len(rest) > 0; {
		end := 0
		for range bodyRecords {
			end += bytes.IndexByte(rest[end:], '\n') + 1
		}
		bodies = append(bodies, rest[:end])
		rest = rest[end:]
	}
	p := NewRecordParser(nil)
	rd := bytes.NewReader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(bodies[i%len(bodies)])
		p.Reset(rd)
		out, err := p.AppendAll(nil, 0)
		if err != nil || len(out) != bodyRecords {
			b.Fatalf("decoded %d records, err %v", len(out), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bodyRecords), "ns/record")
}
