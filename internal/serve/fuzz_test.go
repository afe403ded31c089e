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
