package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"ghsom"
	"ghsom/internal/kdd"
	"ghsom/internal/leakcheck"
)

// FuzzLoadModelHTTP sends each input as the body of POST /model to a
// registry already serving a small trained pipeline (the frozen v3
// fixture). The handler must never panic and must answer 200/201
// exactly when the body loads as a pipeline, and 4xx otherwise: fault
// injection is off, so a 5xx is a server fault. After a successful load,
// an NDJSON /detect against the new model must answer 200 or 4xx. The
// seed-corpus run checks that the registry leaks no goroutine; under
// -fuzz the engine starts a signal-handling goroutine of its own, so the
// check is off there.
func FuzzLoadModelHTTP(f *testing.F) {
	if fuzzing := flag.Lookup("test.fuzz"); fuzzing == nil || fuzzing.Value.String() == "" {
		leakcheck.Check(f)
	}
	v3, err := os.ReadFile("../../testdata/pipeline_v3.bin")
	if err != nil {
		f.Fatal(err)
	}
	pipe, err := ghsom.LoadPipeline(bytes.NewReader(v3))
	if err != nil {
		f.Fatal(err)
	}
	reg := NewRegistry(testConfig(64, 1))
	f.Cleanup(reg.Close)
	if _, _, err := reg.Swap(DefaultModelName, pipe); err != nil {
		f.Fatal(err)
	}
	mux := reg.Mux()
	detectBody, err := json.Marshal(kdd.Record{Protocol: "tcp", Service: "http", Flag: "SF", SrcBytes: 181, DstBytes: 5450, Count: 8, SrvCount: 8})
	if err != nil {
		f.Fatal(err)
	}

	f.Add(v3)
	f.Add(v3[:len(v3)/2])
	f.Add(v3[len(v3)/2:])
	flipped := bytes.Clone(v3)
	flipped[8] ^= 1 // the LogTransform flag
	f.Add(flipped)
	f.Add([]byte(`{"version":2,"logTransform":true,"services":["auth","dns"],"model":{}}`))
	f.Add([]byte("{}"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, body []byte) {
		_, loadErr := ghsom.LoadPipeline(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/model?name=default", bytes.NewReader(body)))
		if loaded := rec.Code == http.StatusOK || rec.Code == http.StatusCreated; loaded != (loadErr == nil) {
			t.Fatalf("POST /model answered %d (%s), LoadPipeline error %v", rec.Code, rec.Body, loadErr)
		}
		if loadErr != nil {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("POST /model answered %d, want 4xx: %s", rec.Code, rec.Body)
			}
			return
		}
		det := httptest.NewRecorder()
		mux.ServeHTTP(det, httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(detectBody)))
		if det.Code != http.StatusOK && (det.Code < 400 || det.Code >= 500) {
			t.Fatalf("/detect on the loaded model answered %d, want 200 or 4xx: %s", det.Code, det.Body)
		}
	})
}

// FuzzDetectHTTP sends each input as a POST /detect body twice, once as
// NDJSON and once as GHSOMWB1 frames, to a registry serving the frozen
// v3 fixture. The handler must never panic and must answer 200 or 4xx:
// fault injection is off, so a 5xx is a server fault. A 200 NDJSON
// answer carries one verdict line per record that
// RecordParser.AppendColumnar decodes from the body, a 200 columnar
// answer one per row of the leading frames that scoredFrameRows counts.
// As in FuzzLoadModelHTTP, the seed-corpus run checks for goroutine
// leaks.
func FuzzDetectHTTP(f *testing.F) {
	if fuzzing := flag.Lookup("test.fuzz"); fuzzing == nil || fuzzing.Value.String() == "" {
		leakcheck.Check(f)
	}
	v3, err := os.ReadFile("../../testdata/pipeline_v3.bin")
	if err != nil {
		f.Fatal(err)
	}
	pipe, err := ghsom.LoadPipeline(bytes.NewReader(v3))
	if err != nil {
		f.Fatal(err)
	}
	reg := NewRegistry(testConfig(64, 1))
	f.Cleanup(reg.Close)
	if _, _, err := reg.Swap(DefaultModelName, pipe); err != nil {
		f.Fatal(err)
	}
	mux := reg.Mux()
	recs, err := ghsom.GenerateTraffic(ghsom.SmallScenario(3))
	if err != nil {
		f.Fatal(err)
	}
	recs = recs[:16]
	var frames bytes.Buffer
	for _, part := range [][]kdd.Record{recs[:9], recs[9:]} {
		if err := kdd.WriteColumnarBatch(&frames, part, kdd.ColumnarWriteOptions{}); err != nil {
			f.Fatal(err)
		}
	}
	bad := recs[0]
	bad.Protocol = "bogus"

	f.Add(ndjson(f, recs))
	f.Add(frames.Bytes())
	f.Add(frames.Bytes()[:frames.Len()/3])
	f.Add(ndjson(f, []kdd.Record{bad}))
	f.Add([]byte("{}"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ct := range []string{"application/x-ndjson", kdd.ColumnarContentType} {
			req := httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
				t.Fatalf("%s /detect answered %d, want 200 or 4xx: %s", ct, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusOK {
				continue
			}
			var rows int
			if ct == kdd.ColumnarContentType {
				rows = scoredFrameRows(pipe, body)
			} else {
				var cb kdd.ColumnarBatch
				if err := kdd.NewRecordParser(bytes.NewReader(body)).AppendColumnar(&cb, maxRequestRecords); err != nil {
					t.Fatalf("/detect answered 200 to a body the parser rejects: %v", err)
				}
				rows = cb.Rows()
			}
			if lines := bytes.Count(rec.Body.Bytes(), []byte("\n")); lines != rows {
				t.Fatalf("%s /detect answered %d verdict lines for %d scored records", ct, lines, rows)
			}
		}
	})
}

// scoredFrameRows counts the rows of body's leading GHSOMWB1 frames that
// kdd.ReadColumnarBatch reads and pipe.DetectColumnar scores, up to the
// first frame that fails or would take the request past
// maxRequestRecords: the verdict lines of a columnar 200, which ends at
// that frame.
func scoredFrameRows(pipe *ghsom.Pipeline, body []byte) int {
	rd := bytes.NewReader(body)
	var cb kdd.ColumnarBatch
	total := 0
	for kdd.ReadColumnarBatch(rd, &cb, kdd.DefaultColumnarLimits) == nil && total+cb.Rows() <= maxRequestRecords {
		if _, err := pipe.DetectColumnar(&cb, nil); err != nil {
			break
		}
		total += cb.Rows()
	}
	return total
}
