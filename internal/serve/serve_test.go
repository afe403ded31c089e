package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ghsom"
	"ghsom/internal/faultinject"
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

// testConfig builds a Config with the given batch cap and worker bound
// and production-default caps.
func testConfig(maxBatch, par int) Config {
	return Config{
		MaxBatch:    maxBatch,
		Parallelism: par,
		QueueCap:    DefaultQueueCap,
		MaxBody:     DefaultMaxBodyBytes,
		MaxModel:    DefaultMaxModelBytes,
	}
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

// submit runs records through the batcher as one decoded NDJSON body.
func (b *batcher) submit(ctx context.Context, records []kdd.Record, deadline time.Time) ([]ghsom.Prediction, error) {
	return b.run(ctx, &job{batch: recordBatch(records), deadline: deadline})
}

// recordBatch decodes records, rendered as NDJSON, into a fresh batch.
func recordBatch(records []kdd.Record) *kdd.ColumnarBatch {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			panic(err)
		}
	}
	cb := new(kdd.ColumnarBatch)
	if err := kdd.NewRecordParser(&buf).AppendColumnar(cb, 0); err != nil {
		panic(err)
	}
	return cb
}

// flushHold is how long holdFlush stalls the dataplane: ample time for a
// test to queue its jobs behind the held flush.
const flushHold = 500 * time.Millisecond

// holdFlush starts one flush per lead, each stalling inside the
// dataplane for flushHold (a dataplane-latency fault armed for exactly
// len(leads) firings), and returns once every stall has begun. Leads are
// submitted one at a time, each after the previous stall began, so each
// lands in its own flush loop. With every loop held, jobs pushed now
// queue up and must share the following flushes. The returned channel
// yields each lead job's error.
func holdFlush(t *testing.T, b *batcher, leads ...[]kdd.Record) <-chan error {
	t.Helper()
	t.Cleanup(faultinject.Disarm)
	base := faultinject.Hits(faultinject.DataplaneLatency)
	if err := faultinject.Arm(fmt.Sprintf("%s=latency:%v:%d", faultinject.DataplaneLatency, flushHold, len(leads))); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, len(leads))
	for i, lead := range leads {
		go func() {
			_, err := b.submit(context.Background(), lead, time.Time{})
			done <- err
		}()
		waitUntil(t, fmt.Sprintf("held flush %d to start", i+1), func() bool {
			return faultinject.Hits(faultinject.DataplaneLatency) == base+int64(i+1)
		})
	}
	return done
}

// waitQueued waits until n jobs wait in b's admission queue behind a held
// flush.
func waitQueued(t *testing.T, b *batcher, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d queued jobs (flushHold too short?)", n), func() bool {
		return b.q.Depth() == n
	})
}

// waitUntil polls cond, failing the test if it does not hold within 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestBatcherCoalescesAndMatchesDetectAll queues many small requests
// behind a held flush and verifies they coalesce into exactly one
// following flush, with every client getting the same predictions the
// direct batch path produces. Exactly one following flush is a property
// of a single flush loop, so the batcher runs at Parallelism 1.
func TestBatcherCoalescesAndMatchesDetectAll(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[:600]
	want, err := pipe.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(pipe, testConfig(1024, 1))
	defer b.close()

	lead := holdFlush(t, b, recs[600:601])
	const jobRecs = 5
	nJobs := len(eval) / jobRecs
	got := make([][]ghsom.Prediction, nJobs)
	var wg sync.WaitGroup
	errs := make([]error, nJobs)
	for j := 0; j < nJobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			got[j], errs[j] = b.submit(context.Background(), eval[j*jobRecs:(j+1)*jobRecs], time.Time{})
		}(j)
	}
	waitQueued(t, b, nJobs)
	if err := <-lead; err != nil {
		t.Fatalf("held job: %v", err)
	}
	wg.Wait()
	for j := 0; j < nJobs; j++ {
		if errs[j] != nil {
			t.Fatalf("job %d: %v", j, errs[j])
		}
		for i, p := range got[j] {
			if p != want[j*jobRecs+i] {
				t.Fatalf("job %d record %d: batched %+v, direct %+v", j, i, p, want[j*jobRecs+i])
			}
		}
	}
	snap := b.stats.snapshot()
	if snap.Records != int64(nJobs*jobRecs+1) {
		t.Errorf("stats.records = %d, want %d", snap.Records, nJobs*jobRecs+1)
	}
	// The held flush plus one flush serving every queued job.
	if snap.Batches != 2 || snap.MaxBatchSize != nJobs*jobRecs {
		t.Errorf("%d queued jobs did not share one flush: %d batches, largest %d records", nJobs, snap.Batches, snap.MaxBatchSize)
	}
	// Queue-wait aggregates: every dequeued job observed a wait, and a
	// scrape drains the window.
	waits := b.q.TakeWaitStats()
	if waits.Count != int64(nJobs+1) {
		t.Errorf("wait stats count = %d, want %d", waits.Count, nJobs+1)
	}
	if waits.Max < waits.Mean {
		t.Errorf("wait stats max %v < mean %v", waits.Max, waits.Mean)
	}
	if again := b.q.TakeWaitStats(); again.Count != 0 || again.Max != 0 {
		t.Errorf("second scrape not reset: %+v", again)
	}
}

// TestBatcherFlushesConcurrently pins concurrent flush loops: at
// Parallelism 2, a job submitted while one flush is held in the
// dataplane is served by the other loop well before the hold ends. With
// a single flush loop it would wait out the hold and time out.
func TestBatcherFlushesConcurrently(t *testing.T) {
	pipe, recs := testPipeline(t)
	job := recs[:16]
	want, err := pipe.DetectAll(job)
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(pipe, testConfig(1024, 2))
	defer b.close()

	lead := holdFlush(t, b, recs[600:601])
	ctx, cancel := context.WithTimeout(context.Background(), flushHold/2)
	got, err := b.submit(ctx, job, time.Time{})
	cancel()
	if err != nil {
		t.Fatalf("job behind one held flush: %v (flushes run one at a time?)", err)
	}
	if !predsEqual(got, want) {
		t.Fatal("concurrently flushed job: verdicts differ from the direct path")
	}
	select {
	case <-lead:
		t.Fatal("the held flush ended before the concurrent job was checked")
	default:
	}
	if err := <-lead; err != nil {
		t.Fatalf("held job: %v", err)
	}
}

// TestBatcherCoalescesAcrossLoops is the coalescing test at Parallelism
// 2: with both flush loops held, many small queued requests are served
// in at most two following flushes (one per loop), and every client gets
// the predictions the direct batch path produces.
func TestBatcherCoalescesAcrossLoops(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[:600]
	want, err := pipe.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(pipe, testConfig(1024, 2))
	defer b.close()

	lead := holdFlush(t, b, recs[600:601], recs[601:602])
	const jobRecs = 5
	nJobs := len(eval) / jobRecs
	got := make([][]ghsom.Prediction, nJobs)
	errs := make([]error, nJobs)
	var wg sync.WaitGroup
	for j := range nJobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[j], errs[j] = b.submit(context.Background(), eval[j*jobRecs:(j+1)*jobRecs], time.Time{})
		}()
	}
	waitQueued(t, b, nJobs)
	for range 2 {
		if err := <-lead; err != nil {
			t.Fatalf("held job: %v", err)
		}
	}
	wg.Wait()
	for j := range nJobs {
		if errs[j] != nil {
			t.Fatalf("job %d: %v", j, errs[j])
		}
		if !predsEqual(got[j], want[j*jobRecs:(j+1)*jobRecs]) {
			t.Fatalf("job %d: batched verdicts differ from the direct path", j)
		}
	}
	snap := b.stats.snapshot()
	if snap.Records != int64(nJobs*jobRecs+2) {
		t.Errorf("stats.records = %d, want %d", snap.Records, nJobs*jobRecs+2)
	}
	// The two held flushes plus at most one flush per loop for the queue.
	if following := snap.Batches - 2; following < 1 || following > 2 {
		t.Errorf("%d queued jobs took %d following flushes, want 1 or 2", nJobs, following)
	}
}

// TestStatsGaugesUnderConcurrentFlushes pins the worker gauges of a
// Parallelism 2 batcher: busyWorkers counts running passes, so one held
// flush reads busy 1 / idle 1 and both loops held read busy 2 / idle 0,
// never more than the bound. With both loops held the Retry-After
// estimate must spread the queued backlog over both loops.
func TestStatsGaugesUnderConcurrentFlushes(t *testing.T) {
	pipe, recs := testPipeline(t)
	one := newBatcher(pipe, testConfig(1024, 2))
	held := holdFlush(t, one, recs[:1])
	if snap := one.statsSnapshot(); snap.WorkerBound != 2 || snap.BusyWorkers != 1 || snap.IdleWorkers != 1 {
		t.Errorf("one held flush at bound 2: workerBound %d busyWorkers %d idleWorkers %d, want 2, 1, 1",
			snap.WorkerBound, snap.BusyWorkers, snap.IdleWorkers)
	}
	if err := <-held; err != nil {
		t.Fatalf("held job: %v", err)
	}
	one.close()

	b := newBatcher(pipe, testConfig(1024, 2))
	defer b.close()
	// Pin the mean flush latency the estimate reads to one second.
	b.stats.record(1, time.Second)

	lead := holdFlush(t, b, recs[:1], recs[1:2])
	const queued = 4
	var wg sync.WaitGroup
	for i := range queued {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.submit(context.Background(), recs[i:i+1], time.Time{}); err != nil {
				t.Errorf("queued job %d: %v", i, err)
			}
		}()
	}
	waitQueued(t, b, queued)
	snap := b.statsSnapshot()
	if snap.WorkerBound != 2 || snap.BusyWorkers != 2 || snap.IdleWorkers != 0 {
		t.Errorf("two held flushes at bound 2: workerBound %d busyWorkers %d idleWorkers %d, want 2, 2, 0",
			snap.WorkerBound, snap.BusyWorkers, snap.IdleWorkers)
	}
	// 4 queued jobs × 1s mean flush latency / 2 loops.
	if snap.RetryAfterSec != 2 {
		t.Errorf("retryAfterSec = %d, want 2 (queue depth %d × 1s / 2 loops)", snap.RetryAfterSec, snap.QueueDepth)
	}
	for range 2 {
		if err := <-lead; err != nil {
			t.Fatalf("held job: %v", err)
		}
	}
	wg.Wait()
}

// TestBatcherFlushesLoneJobWithoutLinger pins the work-conserving flush
// policy: a lone job on an idle batcher is served at once, whatever the
// deprecated FlushEvery says, and a lone job above MaxBatch still flushes
// alone and whole.
func TestBatcherFlushesLoneJobWithoutLinger(t *testing.T) {
	pipe, recs := testPipeline(t)
	cfg := testConfig(8, 0)
	cfg.FlushEvery = time.Hour
	b := newBatcher(pipe, cfg)
	defer b.close()
	for _, n := range []int{1, 20} { // below and above MaxBatch
		want, err := pipe.DetectAll(recs[:n])
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		got, err := b.submit(ctx, recs[:n], time.Time{})
		cancel()
		if err != nil {
			t.Fatalf("lone %d-record job: %v", n, err)
		}
		if !predsEqual(got, want) {
			t.Fatalf("lone %d-record job: verdicts differ from the direct path", n)
		}
	}
	if snap := b.stats.snapshot(); snap.Batches != 2 || snap.MaxBatchSize != 20 {
		t.Errorf("stats = %d batches, largest %d records; want 2 batches, largest 20", snap.Batches, snap.MaxBatchSize)
	}
}

// TestBatcherIsolatesBadJob co-batches a bad record in one client's
// request with a valid request behind a held flush: the valid job must
// not fail, and the failing client's error must carry its own record
// index, not the merged batch's. One flush loop (Parallelism 1) makes the
// two jobs queue behind the held flush and share the next one.
func TestBatcherIsolatesBadJob(t *testing.T) {
	pipe, recs := testPipeline(t)
	b := newBatcher(pipe, testConfig(1024, 1))
	defer b.close()

	good := recs[:20]
	bad := append([]kdd.Record(nil), recs[20:30]...)
	bad[7].Flag = "BOGUS"

	lead := holdFlush(t, b, recs[30:31])
	var wg sync.WaitGroup
	var goodPreds, badPreds []ghsom.Prediction
	var goodErr, badErr error
	wg.Add(2)
	go func() { defer wg.Done(); goodPreds, goodErr = b.submit(context.Background(), good, time.Time{}) }()
	go func() { defer wg.Done(); badPreds, badErr = b.submit(context.Background(), bad, time.Time{}) }()
	waitQueued(t, b, 2)
	if err := <-lead; err != nil {
		t.Fatalf("held job: %v", err)
	}
	wg.Wait()

	if goodErr != nil {
		t.Fatalf("valid job failed alongside a bad co-batched job: %v", goodErr)
	}
	want, err := pipe.DetectAll(good)
	if err != nil {
		t.Fatal(err)
	}
	if !predsEqual(goodPreds, want) {
		t.Fatalf("valid job: isolated retry %+v, direct %+v", goodPreds, want)
	}
	if badErr == nil || !strings.Contains(badErr.Error(), "record 7") {
		t.Errorf("bad job err = %v, want its own record 7", badErr)
	}
	if badPreds != nil {
		t.Error("bad job received predictions despite error")
	}
	if q := b.stats.snapshot().Quarantined; q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
}

// TestHandleDetectHTTP exercises the HTTP surface end to end.
func TestHandleDetectHTTP(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[100:160]
	cfg := testConfig(64, 0)
	cfg.Instance = "test-replica-1"
	reg := NewRegistry(cfg)
	defer reg.Close()
	if _, _, err := reg.Swap(DefaultModelName, pipe); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", bytes.NewReader(ndjson(t, eval)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if inst := resp.Header.Get(InstanceHeader); inst != "test-replica-1" {
		t.Errorf("%s = %q, want test-replica-1", InstanceHeader, inst)
	}
	preds := decodePreds(t, resp.Body)
	want, err := pipe.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(want) {
		t.Fatalf("got %d predictions, want %d", len(preds), len(want))
	}
	for i := range preds {
		if preds[i] != want[i] {
			t.Fatalf("record %d: http %+v, direct %+v", i, preds[i], want[i])
		}
	}

	// Malformed and empty bodies are client errors.
	for _, body := range []string{"", "{not json}"} {
		resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Stats reflect the served traffic and carry the instance identity.
	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var snap StatsView
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Records < int64(len(eval)) || snap.Batches < 1 {
		t.Errorf("stats = %+v, want >= %d records in >= 1 batch", snap, len(eval))
	}
	if snap.Instance != "test-replica-1" {
		t.Errorf("stats instance = %q, want test-replica-1", snap.Instance)
	}
	if snap.Draining {
		t.Error("stats report draining on a serving registry")
	}
	if snap.RetryAfterSec < 1 {
		t.Errorf("retryAfterSec = %d, want >= 1", snap.RetryAfterSec)
	}
}

// altPipeline trains a second, distinguishable pipeline for swap tests.
func altPipeline(t *testing.T, recs []kdd.Record) *ghsom.Pipeline {
	t.Helper()
	cfg := ghsom.DefaultPipelineConfig()
	cfg.Model.EpochsPerGrowth = 3
	cfg.Model.FineTuneEpochs = 3
	cfg.Model.MaxGrowIters = 4
	cfg.Model.MaxDepth = 2
	cfg.Model.Seed = 99
	cfg.TrainCapPerLabel = 400
	pipe, err := ghsom.TrainPipeline(recs[:2000], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// TestRegistryHotSwapUnderLoad hammers /detect from concurrent clients
// while a new model is hot-swapped in via POST /model: no request may
// fail, be dropped, or be torn (every response must match one model's
// predictions wholesale), and traffic after the swap must be served by
// the new model.
func TestRegistryHotSwapUnderLoad(t *testing.T) {
	pipeA, recs := testPipeline(t)
	pipeB := altPipeline(t, recs)
	eval := recs[:40]
	wantA, err := pipeA.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := pipeB.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(testConfig(64, 0))
	defer reg.Close()
	reg.Swap(DefaultModelName, pipeA)
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()

	body := ndjson(t, eval)
	matches := func(preds []ghsom.Prediction) string {
		if len(preds) != len(eval) {
			return "wrong count"
		}
		a, b := true, true
		for i := range preds {
			if preds[i] != wantA[i] {
				a = false
			}
			if preds[i] != wantB[i] {
				b = false
			}
		}
		switch {
		case a:
			return "A"
		case b:
			return "B"
		default:
			return "torn"
		}
	}

	const workers = 4
	const reqsPerWorker = 25
	results := make([][]string, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < reqsPerWorker; r++ {
				resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", bytes.NewReader(body))
				if err != nil {
					errs[w] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					errs[w] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
					return
				}
				preds := decodePreds(t, resp.Body)
				resp.Body.Close()
				results[w] = append(results[w], matches(preds))
			}
		}(w)
	}

	// Swap to model B mid-load.
	var envB bytes.Buffer
	if err := pipeB.Save(&envB); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	resp, err := http.Post(srv.URL+"/model", "application/octet-stream", bytes.NewReader(envB.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var swapped ModelView
	if err := json.NewDecoder(resp.Body).Decode(&swapped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status = %d", resp.StatusCode)
	}
	if swapped.Swaps != 1 || swapped.EnvelopeVersion != 3 {
		t.Errorf("swap view = %+v, want swaps=1 envelopeVersion=3", swapped)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	sawA, sawB := false, false
	for w := range results {
		if len(results[w]) != reqsPerWorker {
			t.Fatalf("worker %d served %d of %d requests", w, len(results[w]), reqsPerWorker)
		}
		for r, m := range results[w] {
			switch m {
			case "A":
				sawA = true
			case "B":
				sawB = true
			default:
				t.Fatalf("worker %d request %d: %s response", w, r, m)
			}
		}
	}
	if !sawA {
		t.Error("no request was served by the original model")
	}
	_ = sawB // timing-dependent: the swap may land after most workers finish

	// After the swap, traffic must come from model B.
	resp, err = http.Post(srv.URL+"/detect", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	preds := decodePreds(t, resp.Body)
	resp.Body.Close()
	if m := matches(preds); m != "B" {
		t.Fatalf("post-swap response served by %s, want B", m)
	}
}

// TestRegistryNamedModels exercises per-request model selection and the
// /models listing.
func TestRegistryNamedModels(t *testing.T) {
	pipeA, recs := testPipeline(t)
	pipeB := altPipeline(t, recs)
	eval := recs[50:70]
	wantA, err := pipeA.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := pipeB.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(testConfig(64, 0))
	defer reg.Close()
	reg.Swap(DefaultModelName, pipeA)
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()

	// Unknown model name is a 404.
	resp, err := http.Post(srv.URL+"/detect?model=nope", "application/x-ndjson", bytes.NewReader(ndjson(t, eval)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status = %d, want 404", resp.StatusCode)
	}

	// Create a named entry via POST /model?name=canary (201 Created).
	var envB bytes.Buffer
	if err := pipeB.Save(&envB); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/model?name=canary", "application/octet-stream", bytes.NewReader(envB.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d, want 201", resp.StatusCode)
	}

	// Per-request selection routes to the right model.
	check := func(query string, want []ghsom.Prediction) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/detect"+query, "application/x-ndjson", bytes.NewReader(ndjson(t, eval)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		preds := decodePreds(t, resp.Body)
		if len(preds) != len(want) {
			t.Fatalf("%s: got %d predictions, want %d", query, len(preds), len(want))
		}
		for i := range preds {
			if preds[i] != want[i] {
				t.Fatalf("%s record %d: got %+v, want %+v", query, i, preds[i], want[i])
			}
		}
	}
	check("", wantA)
	check("?model=default", wantA)
	check("?model=canary", wantB)

	// Listing shows both entries with their envelope versions and shapes.
	lresp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var views []ModelView
	if err := json.NewDecoder(lresp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].Name != "canary" || views[1].Name != "default" {
		t.Fatalf("listing = %+v", views)
	}
	for _, v := range views {
		if v.EnvelopeVersion != 3 || v.Nodes < 1 || v.Units < 1 || v.ArenaBytes < 1 {
			t.Errorf("listing entry %+v missing model metadata", v)
		}
	}

	// A malformed envelope upload is rejected without disturbing the
	// registry.
	resp, err = http.Post(srv.URL+"/model?name=canary", "application/octet-stream", strings.NewReader("not an envelope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad envelope status = %d, want 400", resp.StatusCode)
	}
	check("?model=canary", wantB)

	// DELETE unloads the canary; the default model is protected.
	del := func(query string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/model"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del("?name=default"); code != http.StatusBadRequest {
		t.Fatalf("deleting default = %d, want 400", code)
	}
	if code := del("?name=canary"); code != http.StatusNoContent {
		t.Fatalf("deleting canary = %d, want 204", code)
	}
	if code := del("?name=canary"); code != http.StatusNotFound {
		t.Fatalf("re-deleting canary = %d, want 404", code)
	}
	resp, err = http.Post(srv.URL+"/detect?model=canary", "application/x-ndjson", bytes.NewReader(ndjson(t, eval)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("detect on unloaded model = %d, want 404", resp.StatusCode)
	}
	check("", wantA) // default still serves
}

// columnarBody renders records as one columnar wire frame.
func columnarBody(t *testing.T, recs []kdd.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := kdd.WriteColumnarBatch(&buf, recs, kdd.ColumnarWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHandleDetectColumnar posts columnar frames to /detect and checks
// the verdicts match the NDJSON path bit for bit, across single- and
// multi-frame bodies.
func TestHandleDetectColumnar(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[300:500]
	b := newBatcher(pipe, testConfig(64, 0))
	defer b.close()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /detect", b.handleDetect)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	want, err := pipe.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	// Two frames in one body: predictions must stream out frame by frame
	// in record order.
	body := append(columnarBody(t, eval[:120]), columnarBody(t, eval[120:])...)
	resp, err := http.Post(srv.URL+"/detect", kdd.ColumnarContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("response Content-Type = %q", ct)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, encodePreds(t, want)) {
		t.Fatal("columnar response bytes differ from json.Encoder's")
	}
	preds := decodePreds(t, bytes.NewReader(out))
	if len(preds) != len(want) {
		t.Fatalf("got %d predictions, want %d", len(preds), len(want))
	}
	for i := range preds {
		if preds[i] != want[i] {
			t.Fatalf("record %d: columnar %+v, direct %+v", i, preds[i], want[i])
		}
	}

	// Structurally broken frames and empty bodies are client errors.
	for _, bad := range [][]byte{nil, []byte("GHSOMWB1 not a frame"), body[:len(body)-5]} {
		resp, err := http.Post(srv.URL+"/detect", kdd.ColumnarContentType, bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// A truncated *second* frame lands after output began: the server
		// has already committed a 200 and just ends the stream.
		wantCode := http.StatusBadRequest
		if len(bad) > len(body)/2 {
			wantCode = http.StatusOK
		}
		if resp.StatusCode != wantCode {
			t.Errorf("bad body (%d bytes): status %d, want %d", len(bad), resp.StatusCode, wantCode)
		}
	}

	// A frame with an unknown protocol symbol is a 422, like the NDJSON
	// path's unprocessable records.
	badRecs := append([]kdd.Record(nil), eval[:10]...)
	badRecs[3].Protocol = "sctp"
	resp, err = http.Post(srv.URL+"/detect", kdd.ColumnarContentType, bytes.NewReader(columnarBody(t, badRecs)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "record 3") {
		t.Errorf("unknown protocol: status %d body %q, want 422 naming record 3", resp.StatusCode, raw)
	}
}

// TestDetectBodyCap413 pins the -max-body contract on both wire formats:
// a body over the cap is rejected with 413, under it with 200.
func TestDetectBodyCap413(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[:64]
	b := newBatcher(pipe, testConfig(64, 0))
	b.maxBody = 2048 // tiny cap for the test
	defer b.close()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /detect", b.handleDetect)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, tc := range []struct {
		name string
		ct   string
		body []byte
	}{
		{"ndjson", "application/x-ndjson", ndjson(t, eval)},
		{"columnar", kdd.ColumnarContentType, columnarBody(t, eval)},
	} {
		if len(tc.body) <= 2048 {
			t.Fatalf("%s test body only %d bytes, cap not exercised", tc.name, len(tc.body))
		}
		resp, err := http.Post(srv.URL+"/detect", tc.ct, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s over-cap body: status %d, want 413", tc.name, resp.StatusCode)
		}
		small, err := http.Post(srv.URL+"/detect", tc.ct, bytes.NewReader(tc.body[:0]))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, small.Body)
		small.Body.Close()
		if small.StatusCode != http.StatusBadRequest {
			t.Errorf("%s empty body: status %d, want 400", tc.name, small.StatusCode)
		}
	}
	// An under-cap request still succeeds.
	resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", bytes.NewReader(ndjson(t, eval[:1])))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("under-cap body: status %d, want 200", resp.StatusCode)
	}
}

// TestModelUploadCap413 pins the -max-model contract on POST /model.
func TestModelUploadCap413(t *testing.T) {
	pipe, _ := testPipeline(t)
	cfg := testConfig(64, 0)
	cfg.MaxModel = 4096
	reg := NewRegistry(cfg)
	defer reg.Close()
	reg.Swap(DefaultModelName, pipe)
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()

	var env bytes.Buffer
	if err := pipe.Save(&env); err != nil {
		t.Fatal(err)
	}
	if env.Len() <= 4096 {
		t.Fatalf("envelope only %d bytes, cap not exercised", env.Len())
	}
	resp, err := http.Post(srv.URL+"/model?name=big", "application/octet-stream", bytes.NewReader(env.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap envelope: status %d, want 413", resp.StatusCode)
	}
	if reg.get("big") != nil {
		t.Error("over-cap upload created a registry entry")
	}
}
