package kdd_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"ghsom/internal/kdd"
	"ghsom/internal/trafficgen"
)

// bodyRecords is the live request size: servebench's live workloads send
// 16-record NDJSON bodies.
const bodyRecords = 16

// BenchmarkReadRecordsBody decodes 16-record NDJSON request bodies with
// a reused parser, one body per op: AppendAll into a reused record slice
// (the library path of ghsom-serve -stdin and servebench's replay), and,
// in kdd99like-columnar, AppendColumnar into a reused batch — the decode
// ghsom-serve's /detect runs.
//
// The columnar corpus is the package's test records, whose numbers are
// mostly short integers; kdd99like is trafficgen's headline scenario,
// whose rates carry the 16–17 significant digits servebench sends.
func BenchmarkReadRecordsBody(b *testing.B) {
	traffic, err := trafficgen.Generate(trafficgen.KDD99Like(1))
	if err != nil {
		b.Fatal(err)
	}
	live := make([]kdd.Record, 64*bodyRecords)
	for i := range live {
		live[i] = traffic[i*len(traffic)/len(live)]
	}
	for _, corpus := range []struct {
		name     string
		records  []kdd.Record
		columnar bool
	}{
		{"columnar", kdd.ColumnarTestRecords(64 * bodyRecords), false},
		{"kdd99like", live, false},
		{"kdd99like-columnar", live, true},
	} {
		b.Run(corpus.name, func(b *testing.B) {
			bodies := ndjsonBodies(b, corpus.records)
			p := kdd.NewRecordParser(nil)
			rd := bytes.NewReader(nil)
			dst := make([]kdd.Record, 0, bodyRecords)
			var cb kdd.ColumnarBatch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(bodies[i%len(bodies)])
				p.Reset(rd)
				n := 0
				if corpus.columnar {
					cb.Reset()
					err = p.AppendColumnar(&cb, 0)
					n = cb.Rows()
				} else {
					var out []kdd.Record
					out, err = p.AppendAll(dst[:0], 0)
					n = len(out)
				}
				if err != nil || n != bodyRecords {
					b.Fatalf("decoded %d records, err %v", n, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bodyRecords), "ns/record")
		})
	}
}

// ndjsonBodies renders records as encoding/json writes them, cut into
// bodies of bodyRecords lines.
func ndjsonBodies(tb testing.TB, records []kdd.Record) [][]byte {
	tb.Helper()
	var bodies [][]byte
	for lo := 0; lo+bodyRecords <= len(records); lo += bodyRecords {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range records[lo : lo+bodyRecords] {
			if err := enc.Encode(&records[lo+i]); err != nil {
				tb.Fatal(err)
			}
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies
}
