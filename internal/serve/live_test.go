package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ghsom"
	"ghsom/internal/faultinject"
	"ghsom/internal/kdd"
	"ghsom/internal/trafficgen"
)

// TestBatchPoolSafeWhenClientCancels pins when a decoded body's pooled
// batch may be reused. A flush reads its jobs' batches, so a batch
// pooled while its job still sits in a held flush would be overwritten
// by the next request's decode and the held flush would score the wrong
// records. The client of the held job cancels, a second request decodes
// into a pooled batch and is served by the other flush loop, and after
// the hold both flushes' verdicts must equal DetectAll. The steps are
// handleDetect's: decode, run, release.
func TestBatchPoolSafeWhenClientCancels(t *testing.T) {
	pipe, recs := testPipeline(t)
	first, second := recs[:16], recs[16:32]
	wantFirst, err := pipe.DetectAll(first)
	if err != nil {
		t.Fatal(err)
	}
	wantSecond, err := pipe.DetectAll(second)
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(pipe, testConfig(64, 2))
	defer b.close()

	t.Cleanup(faultinject.Disarm)
	base := faultinject.Hits(faultinject.DataplaneLatency)
	if err := faultinject.Arm(fmt.Sprintf("%s=latency:%v:1", faultinject.DataplaneLatency, flushHold)); err != nil {
		t.Fatal(err)
	}
	held := &job{}
	if err := held.decode(bytes.NewReader(ndjson(t, first))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	left := make(chan error, 1)
	go func() {
		_, err := b.run(ctx, held)
		left <- err
	}()
	waitUntil(t, "held flush to start", func() bool {
		return faultinject.Hits(faultinject.DataplaneLatency) == base+1
	})
	cancel()
	if err := <-left; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled client: err %v, want context.Canceled", err)
	}
	// Release on this goroutine, so a wrongly pooled batch most likely
	// sits in the per-P pool the next decode draws from.
	b.release(held)
	if held.batch == nil {
		t.Fatal("release pooled the batch of a job still in a flush")
	}
	select {
	case <-held.done:
		t.Fatal("the held flush ended before the second request ran")
	default:
	}

	next := &job{}
	if err := next.decode(bytes.NewReader(ndjson(t, second))); err != nil {
		t.Fatal(err)
	}
	got, err := b.run(context.Background(), next)
	b.release(next)
	if err != nil {
		t.Fatalf("second request: %v", err)
	}
	if !predsEqual(got, wantSecond) {
		t.Fatal("second request: verdicts differ from DetectAll")
	}

	waitDone(t, held)
	if held.err != nil {
		t.Fatalf("held flush: %v", held.err)
	}
	if !predsEqual(held.preds, wantFirst) {
		t.Fatal("held flush: verdicts differ from DetectAll (its records were reused while it ran)")
	}
}

// TestDecodePooledBodyAllocs pins the live decode at zero allocations:
// once the pools are warm, a 16-record body decodes into a pooled batch
// with a pooled parser and goes back to the pool, allocating nothing.
func TestDecodePooledBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	recs, err := trafficgen.Generate(trafficgen.Small(71))
	if err != nil {
		t.Fatal(err)
	}
	b := &batcher{maxBatch: 64}
	body := ndjson(t, recs[:16])
	rd := bytes.NewReader(body)
	var j job
	decode := func() {
		rd.Reset(body)
		j = job{}
		if err := j.decode(rd); err != nil || j.batch.Rows() != 16 {
			t.Fatalf("decoded %d records, err %v", j.batch.Rows(), err)
		}
		b.release(&j)
	}
	decode() // warm the parser, the intern table and the batch pool
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("a pooled 16-record body decode allocates %v times, want 0", allocs)
	}
}

// TestDetectNDJSONLowestBadRecord checks /detect names the lowest bad
// record of an NDJSON body with DetectBatch's message: with an unknown
// flag at record 1, a NaN after the log transform at record 3 and an
// unknown protocol at record 5 the 422 names record 1, and once the
// flag is repaired, record 3.
func TestDetectNDJSONLowestBadRecord(t *testing.T) {
	pipe, recs := testPipeline(t)
	body := append([]kdd.Record(nil), recs[:8]...)
	body[1].Flag = "BOGUSFLAG"
	body[3].Count = -2 // log1p(-2) is NaN
	body[5].Protocol = "bogusproto"
	b := newBatcher(pipe, testConfig(64, 1))
	defer b.close()
	for _, want := range []int{1, 3} {
		_, batchErr := pipe.DetectBatch(body, nil)
		if batchErr == nil || !strings.HasPrefix(batchErr.Error(), fmt.Sprintf("record %d: ", want)) {
			t.Fatalf("DetectBatch err %v, want record %d", batchErr, want)
		}
		w := httptest.NewRecorder()
		b.handleDetect(w, httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(ndjson(t, body))))
		var got struct{ Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || w.Code != http.StatusUnprocessableEntity || got.Error != batchErr.Error() {
			t.Fatalf("status %d body %q, want 422 with %q", w.Code, w.Body, batchErr)
		}
		body[1].Flag = body[0].Flag
	}
}

// TestHandleDetectOneWrite checks a /detect response is one Write of
// exactly the bytes json.Encoder writes for the direct path's verdicts,
// with a matching Content-Length.
func TestHandleDetectOneWrite(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[100:140]
	want, err := pipe.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(pipe, testConfig(64, 1))
	defer b.close()
	w := &countingRecorder{ResponseRecorder: httptest.NewRecorder()}
	b.handleDetect(w, httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(ndjson(t, eval))))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	wantBody := encodePreds(t, want)
	if !bytes.Equal(w.Body.Bytes(), wantBody) {
		t.Fatal("response bytes differ from json.Encoder's")
	}
	if w.writes != 1 {
		t.Errorf("%d writes, want 1", w.writes)
	}
	if cl := w.Header().Get("Content-Length"); cl != fmt.Sprint(len(wantBody)) {
		t.Errorf("Content-Length %q, want %d", cl, len(wantBody))
	}
}

// TestWriteVerdictsEncodeError checks a verdict encoding/json would
// refuse (a NaN score) fails the response with a 500 and no partial
// body, not a truncated 200.
func TestWriteVerdictsEncodeError(t *testing.T) {
	b := &batcher{}
	preds := []ghsom.Prediction{{Label: "normal", Cell: "0"}, {Label: "smurf", Score: math.NaN()}}
	w := httptest.NewRecorder()
	b.writeVerdicts(w, preds)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if bytes.Contains(w.Body.Bytes(), []byte(`"Label"`)) {
		t.Fatalf("partial verdicts in the error body: %q", w.Body)
	}
}

// bulkPreds is a response several verdict chunks long.
func bulkPreds() []ghsom.Prediction {
	preds := make([]ghsom.Prediction, 4*verdictChunkBytes/64)
	for i := range preds {
		preds[i] = ghsom.Prediction{Label: "normal", Cell: fmt.Sprintf("0.%d.%d", i%7, i%5), QE: float64(i) / 3, Score: 1 / float64(i+1)}
	}
	return preds
}

// TestWriteVerdictsBulkChunks checks a response larger than one chunk
// goes out in chunk-sized writes, without a Content-Length, and with
// exactly json.Encoder's bytes.
func TestWriteVerdictsBulkChunks(t *testing.T) {
	preds := bulkPreds()
	w := &countingRecorder{ResponseRecorder: httptest.NewRecorder()}
	(&batcher{}).writeVerdicts(w, preds)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	want := encodePreds(t, preds)
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("response bytes differ from json.Encoder's")
	}
	if min := len(want) / (2 * verdictChunkBytes); w.writes < min {
		t.Errorf("%d writes for %d bytes, want at least %d", w.writes, len(want), min)
	}
	if cl := w.Header().Get("Content-Length"); cl != "" {
		t.Errorf("Content-Length %q on a chunked response", cl)
	}
}

// TestWriteVerdictsEncodeErrorAfterChunk checks a verdict that cannot be
// encoded after the first chunk went out aborts the response (the
// client sees a broken connection) instead of ending a short 200.
func TestWriteVerdictsEncodeErrorAfterChunk(t *testing.T) {
	preds := bulkPreds()
	preds[len(preds)-1].Score = math.Inf(1)
	w := httptest.NewRecorder()
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", r)
		}
		if bytes.Contains(w.Body.Bytes(), []byte("encode verdicts")) {
			t.Fatal("error text appended to a 200 stream")
		}
	}()
	(&batcher{}).writeVerdicts(w, preds)
}

// TestDetectColumnarEncodeErrorAfterFrame checks a columnar body whose
// second frame scores a verdict that cannot be encoded aborts the
// response after the first frame's verdicts went out, instead of ending
// a short 200. The model's envelope is edited so one cell's novelty
// threshold is the smallest denormal: qe/threshold overflows to +Inf and
// that cell's verdicts score NaN, which JSON cannot encode.
func TestDetectColumnarEncodeErrorAfterFrame(t *testing.T) {
	pipe, recs := testPipeline(t)
	recs = recs[:64]
	preds, err := pipe.DetectAll(recs)
	if err != nil {
		t.Fatal(err)
	}
	poison := -1
	for i := range preds {
		if preds[i].QE > 1e-9 {
			poison = i
			break
		}
	}
	if poison < 0 {
		t.Fatal("no record with a positive QE")
	}
	var env bytes.Buffer
	if err := pipe.Save(&env); err != nil {
		t.Fatal(err)
	}
	raw := env.Bytes()
	cell, _ := json.Marshal(preds[poison].Cell)
	at := bytes.Index(raw, append(append([]byte(`{"cell":`), cell...), ','))
	if at < 0 {
		t.Fatalf("cell %s not in the envelope", cell)
	}
	lo := at + bytes.Index(raw[at:], []byte(`"qeThreshold":`)) + len(`"qeThreshold":`)
	hi := lo + bytes.IndexByte(raw[lo:], '}')
	const tiny = "5e-324"
	if hi-lo < len(tiny) {
		t.Fatalf("threshold %q too short to overwrite in place", raw[lo:hi])
	}
	copy(raw[lo:hi], tiny+strings.Repeat(" ", hi-lo-len(tiny)))
	bad, err := ghsom.LoadPipeline(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	badPreds, err := bad.DetectAll(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(badPreds[poison].Score) {
		t.Fatalf("poisoned record scores %v, want NaN", badPreds[poison].Score)
	}
	var clean []kdd.Record
	for i := range recs {
		if badPreds[i].Cell != preds[poison].Cell {
			clean = append(clean, recs[i])
		}
	}
	if len(clean) == 0 {
		t.Fatal("every record lands in the poisoned cell")
	}
	body := append(columnarBody(t, clean), columnarBody(t, recs[poison:poison+1])...)
	b := newBatcher(bad, testConfig(64, 1))
	defer b.close()
	req := httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(body))
	req.Header.Set("Content-Type", kdd.ColumnarContentType)
	w := httptest.NewRecorder()
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler (status %d, body %d bytes)", r, w.Code, w.Body.Len())
		}
		if w.Code != http.StatusOK || bytes.Contains(w.Body.Bytes(), []byte("encode verdicts")) {
			t.Fatalf("status %d body %q: want the first frame's verdicts only", w.Code, w.Body)
		}
	}()
	b.handleDetectColumnar(w, req)
}

// encodePreds renders predictions the way a default json.Encoder does,
// the reference the verdict appender must match byte for byte.
func encodePreds(t *testing.T, preds []ghsom.Prediction) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range preds {
		if err := enc.Encode(&preds[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// countingRecorder counts Write calls.
type countingRecorder struct {
	*httptest.ResponseRecorder
	writes int
}

func (r *countingRecorder) Write(p []byte) (int, error) {
	r.writes++
	return r.ResponseRecorder.Write(p)
}

// waitDone bounds a wait on a job's done channel.
func waitDone(t *testing.T, j *job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatal("job never finished")
	}
}
