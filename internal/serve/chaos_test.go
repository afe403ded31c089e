package serve

// Chaos suite: drives the server through overload, drain, poison storms,
// and injected dataplane faults, asserting the hardening contract — every
// accepted request is served whole and byte-identical to the unloaded
// server's verdicts, everything else sheds with a clean retryable status,
// and no scenario leaks goroutines or kills the process.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ghsom"
	"ghsom/internal/faultinject"
	"ghsom/internal/kdd"
	"ghsom/internal/leakcheck"
)

// predsEqual reports whether an HTTP response's predictions match the
// direct dataplane's, element for element.
func predsEqual(preds, want []ghsom.Prediction) bool {
	if len(preds) != len(want) {
		return false
	}
	for i := range preds {
		if preds[i] != want[i] {
			return false
		}
	}
	return true
}

// fetchStats decodes /stats for the default model.
func fetchStats(t *testing.T, url string) StatsView {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatsView
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestChaosOverloadShedsCleanly throttles the dataplane with injected
// latency, shrinks the admission queue, and hammers the server at 2×
// what it can absorb, once with NDJSON bodies and once with columnar
// frames, which go through the same admission queue: every 200 must
// carry verdicts byte-identical to the unloaded server's, every shed
// must be a clean 429 with Retry-After, nothing else may come back, and
// the shed/deadline counters must show up on /stats. With CHAOS_OUT set,
// each format's final counter snapshot is written there as a CI
// artifact.
func TestChaosOverloadShedsCleanly(t *testing.T) {
	pipe, recs := testPipeline(t)
	eval := recs[:24]
	want, err := pipe.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	snaps := map[string]StatsView{}
	for _, tc := range []struct {
		name, ct string
		body     []byte
	}{
		{"ndjson", "application/x-ndjson", ndjson(t, eval)},
		{"columnar", kdd.ColumnarContentType, columnarBody(t, eval)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snaps[tc.name] = chaosOverload(t, pipe, tc.ct, tc.body, want)
		})
	}
	if out := os.Getenv("CHAOS_OUT"); out != "" {
		raw, err := json.MarshalIndent(snaps, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// chaosOverload runs both phases of TestChaosOverloadShedsCleanly on a
// fresh server with bodies of one content type, and returns its final
// /stats snapshot.
func chaosOverload(t *testing.T, pipe *ghsom.Pipeline, ct string, body []byte, want []ghsom.Prediction) StatsView {
	leakcheck.CheckSlack(t, 2)
	cfg := testConfig(64, 0)
	cfg.QueueCap = 2 // tiny: overload must shed, not queue
	cfg.DefaultTimeout = 5 * time.Second
	reg := NewRegistry(cfg)
	defer reg.Close()
	if _, _, err := reg.Swap(DefaultModelName, pipe); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	t.Cleanup(faultinject.Disarm)
	if err := faultinject.Arm(faultinject.DataplaneLatency + "=latency:5ms"); err != nil {
		t.Fatal(err)
	}

	const workers, reqs = 12, 6
	var (
		mu     sync.Mutex
		counts = map[int]int{}
		fails  []string
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reqs; r++ {
				resp, err := http.Post(srv.URL+"/detect", ct, bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					fails = append(fails, err.Error())
					mu.Unlock()
					return
				}
				var note string
				switch resp.StatusCode {
				case http.StatusOK:
					if !predsEqual(decodePreds(t, resp.Body), want) {
						note = "200 with verdicts differing from the unloaded server"
					}
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						note = "429 without Retry-After"
					}
					io.Copy(io.Discard, resp.Body)
				default:
					raw, _ := io.ReadAll(resp.Body)
					note = fmt.Sprintf("unexpected status %d: %s", resp.StatusCode, raw)
				}
				resp.Body.Close()
				mu.Lock()
				counts[resp.StatusCode]++
				if note != "" {
					fails = append(fails, note)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, f := range fails {
		t.Error(f)
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("no request was served under overload: %v", counts)
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Errorf("2x overload against a %d-deep queue shed nothing: %v", cfg.QueueCap, counts)
	}

	// Phase two: 1ms budgets against a 20ms dataplane — admitted jobs
	// must be dropped as deadline misses, never served late.
	if err := faultinject.Arm(faultinject.DataplaneLatency + "=latency:20ms"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/detect", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		req.Header.Set(DeadlineHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("1ms-budget request %d: status %d, want 429", i, resp.StatusCode)
		}
	}
	faultinject.Disarm()

	snap := fetchStats(t, srv.URL)
	if snap.Admitted == 0 {
		t.Error("stats show no admitted jobs")
	}
	if snap.ShedQueueFull == 0 {
		t.Errorf("stats show no queue-full sheds: %+v", snap)
	}
	if snap.ShedDeadline+snap.DroppedDeadline == 0 {
		t.Errorf("stats show no deadline misses: %+v", snap)
	}
	return snap
}

// TestSwapUnderDrain begins the SIGTERM drain sequence under live load
// and lands a model hot-swap mid-drain: the swap must complete, loaded
// work must finish whole on exactly one model, new work must shed with a
// clean 503, and the drain must conclude within grace without leaking
// goroutines. Every sender keeps posting until it sees the draining 503
// (up to a request cap), so the drain provably begins under load however
// fast the dataplane serves.
func TestSwapUnderDrain(t *testing.T) {
	leakcheck.CheckSlack(t, 2)
	pipeA, recs := testPipeline(t)
	pipeB := altPipeline(t, recs)
	eval := recs[:30]
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
	if _, _, err := reg.Swap(DefaultModelName, pipeA); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()
	t.Cleanup(http.DefaultClient.CloseIdleConnections)

	body := ndjson(t, eval)
	const workers, maxReqs = 6, 10000
	var (
		mu             sync.Mutex
		fails          []string
		saw200, saw503 bool
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < maxReqs; r++ {
				resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					fails = append(fails, err.Error())
					mu.Unlock()
					return
				}
				var note string
				switch resp.StatusCode {
				case http.StatusOK:
					preds := decodePreds(t, resp.Body)
					if !predsEqual(preds, wantA) && !predsEqual(preds, wantB) {
						note = "torn response: matches neither model wholesale"
					}
					mu.Lock()
					saw200 = true
					mu.Unlock()
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						note = "503 without Retry-After"
					}
					io.Copy(io.Discard, resp.Body)
					mu.Lock()
					saw503 = true
					mu.Unlock()
				case http.StatusTooManyRequests:
					io.Copy(io.Discard, resp.Body)
				default:
					raw, _ := io.ReadAll(resp.Body)
					note = fmt.Sprintf("unexpected status %d: %s", resp.StatusCode, raw)
				}
				resp.Body.Close()
				if note != "" {
					mu.Lock()
					fails = append(fails, note)
					mu.Unlock()
				}
				if resp.StatusCode == http.StatusServiceUnavailable {
					return // this sender has observed the drain
				}
			}
			mu.Lock()
			fails = append(fails, fmt.Sprintf("sender sent %d requests without seeing the draining 503", maxReqs))
			mu.Unlock()
		}()
	}

	// Let some load land on model A, then begin the drain while every
	// sender is still posting.
	waitUntil(t, "a request served before the drain", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return saw200
	})
	reg.BeginDrain()

	// A hot-swap arriving mid-drain is part of the contract: it must
	// complete (200, swaps=1) even though detection admission is closed.
	var envB bytes.Buffer
	if err := pipeB.Save(&envB); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/model", "application/octet-stream", bytes.NewReader(envB.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var swapped ModelView
	if err := json.NewDecoder(resp.Body).Decode(&swapped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || swapped.Swaps != 1 {
		t.Fatalf("swap during drain: status %d view %+v, want 200 swaps=1", resp.StatusCode, swapped)
	}

	wg.Wait()
	for _, f := range fails {
		t.Error(f)
	}
	if !saw200 {
		t.Error("no request was served before the drain")
	}
	if !saw503 {
		t.Error("no request observed the draining 503")
	}

	// Readiness reflects the drain; liveness does not. /stats reports the
	// drain to upstream coordinators.
	for path, want := range map[string]int{"/healthz": http.StatusServiceUnavailable, "/livez": http.StatusOK} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s during drain = %d, want %d", path, resp.StatusCode, want)
		}
	}
	if snap := fetchStats(t, srv.URL); !snap.Draining {
		t.Error("stats do not report draining mid-drain")
	}

	// The full drain sequence (the same steps cmd/ghsom-serve runs on
	// SIGTERM) concludes within grace. Close the client's idle keep-alive
	// connections first: Shutdown waits for connections still in
	// StateNew, and a connection the client dialed but never used stays
	// there until the client closes it.
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Config.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not conclude cleanly: %v", err)
	}
	reg.Close()
}

// TestPoisonStormIsolation co-batches poison requests (undecodable
// symbols on the NDJSON path, NaN payloads on the columnar path) with
// valid ones: each round queues two valid NDJSON requests and one poison
// request behind a held flush, so all three share the next flush (the
// batcher runs one flush loop, Parallelism 1, so nothing else can pick
// them up), and the columnar round merges both wire formats into that
// one pass. Valid clients always get their exact verdicts, poison
// clients get a 422 naming their own record, and the quarantine counter
// records the storm.
func TestPoisonStormIsolation(t *testing.T) {
	leakcheck.CheckSlack(t, 2)
	pipe, recs := testPipeline(t)
	good := recs[:20]
	want, err := pipe.DetectAll(good)
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(pipe, testConfig(1024, 1))
	defer b.close()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /detect", b.handleDetect)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	t.Cleanup(http.DefaultClient.CloseIdleConnections)

	poison := append([]kdd.Record(nil), recs[20:30]...)
	poison[7].Flag = "BOGUS"
	// A raw NaN is inexpressible in JSON but trivial on the wire.
	nan := append([]kdd.Record(nil), recs[:8]...)
	nan[5].SameSrvRate = math.NaN()
	goodBody := ndjson(t, good)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var fails []string
	post := func(ct string, body []byte, check func(status int, raw []byte) string) {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/detect", ct, bytes.NewReader(body))
		if err != nil {
			mu.Lock()
			fails = append(fails, err.Error())
			mu.Unlock()
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if note := check(resp.StatusCode, raw); note != "" {
			mu.Lock()
			fails = append(fails, note)
			mu.Unlock()
		}
	}
	valid := func(status int, raw []byte) string {
		if status != http.StatusOK {
			return fmt.Sprintf("valid job: status %d: %s", status, raw)
		}
		if !predsEqual(decodePreds(t, bytes.NewReader(raw)), want) {
			return "valid job served wrong verdicts next to poison"
		}
		return ""
	}
	round := func(r int, poisonCT string, poisonBody []byte, poisonRecord string) {
		lead := holdFlush(t, b, good[:1])
		wg.Add(3)
		go post("application/x-ndjson", goodBody, valid)
		go post("application/x-ndjson", goodBody, valid)
		go post(poisonCT, poisonBody, func(status int, raw []byte) string {
			if status != http.StatusUnprocessableEntity || !strings.Contains(string(raw), poisonRecord) {
				return fmt.Sprintf("%s poison job: status %d body %q, want 422 naming %s", poisonCT, status, raw, poisonRecord)
			}
			return ""
		})
		waitQueued(t, b, 3)
		if err := <-lead; err != nil {
			t.Fatalf("round %d: held job: %v", r, err)
		}
		wg.Wait()
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		round(r, "application/x-ndjson", ndjson(t, poison), "record 7")
	}
	round(rounds, kdd.ColumnarContentType, columnarBody(t, nan), "record 5")
	for _, f := range fails {
		t.Error(f)
	}
	if q := b.stats.snapshot().Quarantined; q != rounds+1 {
		t.Errorf("quarantined = %d, want %d", q, rounds+1)
	}
}

// TestPanicIsolation pins the recover() barrier: an injected dataplane
// panic is absorbed — a panic on the merged flush falls back to per-job
// retries, a persistent panic quarantines only its job as a 422 — and
// the server keeps serving afterward.
func TestPanicIsolation(t *testing.T) {
	leakcheck.CheckSlack(t, 2)
	pipe, recs := testPipeline(t)
	eval := recs[:12]
	want, err := pipe.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(pipe, testConfig(64, 0))
	defer b.close()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /detect", b.handleDetect)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	t.Cleanup(faultinject.Disarm)

	post := func() (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", bytes.NewReader(ndjson(t, eval)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, raw
	}

	// One panic: the merged flush dies, the per-job retry succeeds — the
	// client never sees the crash.
	if err := faultinject.Arm(faultinject.ClassifyPanic + "=panic:1"); err != nil {
		t.Fatal(err)
	}
	if status, raw := post(); status != http.StatusOK || !predsEqual(decodePreds(t, bytes.NewReader(raw)), want) {
		t.Fatalf("one-shot panic: status %d, want 200 with exact verdicts", status)
	}

	// A panic that persists through the retry condemns only that job.
	if err := faultinject.Arm(faultinject.ClassifyPanic + "=panic:2"); err != nil {
		t.Fatal(err)
	}
	if status, raw := post(); status != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "panic") {
		t.Fatalf("persistent panic: status %d body %q, want 422 mentioning the quarantined panic", status, raw)
	}
	faultinject.Disarm()

	// The server survives: the next request serves normally.
	if status, raw := post(); status != http.StatusOK || !predsEqual(decodePreds(t, bytes.NewReader(raw)), want) {
		t.Fatalf("post-panic request: status %d, want 200 with exact verdicts", status)
	}
	snap := b.stats.snapshot()
	if snap.Quarantined < 1 {
		t.Errorf("quarantined = %d, want >= 1", snap.Quarantined)
	}
	if !strings.Contains(snap.LastError, "panic") {
		t.Errorf("lastError = %q, want the quarantined panic", snap.LastError)
	}
}

// TestHealthzLifecycle walks readiness through its three states —
// loading, serving, draining — and pins that liveness stays green
// throughout.
func TestHealthzLifecycle(t *testing.T) {
	pipe, _ := testPipeline(t)
	reg := NewRegistry(testConfig(64, 0))
	defer reg.Close()
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()
	t.Cleanup(http.DefaultClient.CloseIdleConnections)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, strings.TrimSpace(string(raw))
	}

	if status, body := get("/healthz"); status != http.StatusServiceUnavailable || body != "loading" {
		t.Errorf("pre-model /healthz = %d %q, want 503 loading", status, body)
	}
	if status, _ := get("/livez"); status != http.StatusOK {
		t.Errorf("pre-model /livez = %d, want 200", status)
	}

	if _, _, err := reg.Swap(DefaultModelName, pipe); err != nil {
		t.Fatal(err)
	}
	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Errorf("serving /healthz = %d, want 200", status)
	}

	reg.BeginDrain()
	if status, body := get("/healthz"); status != http.StatusServiceUnavailable || body != "draining" {
		t.Errorf("draining /healthz = %d %q, want 503 draining", status, body)
	}
	if status, _ := get("/livez"); status != http.StatusOK {
		t.Errorf("draining /livez = %d, want 200", status)
	}
}

// TestFaultInjectionSmoke cycles every injection point under live
// traffic for a bounded window (GHSOM_CHAOS_SMOKE stretches it in CI),
// asserting the server only ever answers with clean statuses and that
// every 200 carries a complete verdict stream.
func TestFaultInjectionSmoke(t *testing.T) {
	pipe, recs := testPipeline(t)
	window := 500 * time.Millisecond
	if s := os.Getenv("GHSOM_CHAOS_SMOKE"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("GHSOM_CHAOS_SMOKE: %v", err)
		}
		window = d
	}
	eval := recs[:16]
	cfg := testConfig(64, 0)
	cfg.DefaultTimeout = 5 * time.Second
	reg := NewRegistry(cfg)
	defer reg.Close()
	if _, _, err := reg.Swap(DefaultModelName, pipe); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	t.Cleanup(faultinject.Disarm)

	var env bytes.Buffer
	if err := pipe.Save(&env); err != nil {
		t.Fatal(err)
	}
	specs := []string{
		"",
		faultinject.DataplaneLatency + "=latency:2ms",
		faultinject.DecodeError + "=error:3",
		faultinject.ScratchExhausted + "=error:2",
		faultinject.ClassifyPanic + "=panic:1",
		faultinject.ModelLoad + "=error:1",
	}
	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusBadRequest:          true, // injected decode failures
		http.StatusUnprocessableEntity: true, // quarantined dataplane faults
		http.StatusTooManyRequests:     true,
		http.StatusInternalServerError: true, // injected model-load failures
		http.StatusServiceUnavailable:  true,
	}
	body := ndjson(t, eval)
	deadline := time.Now().Add(window)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := faultinject.Arm(specs[i%len(specs)]); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !allowed[resp.StatusCode] {
				t.Fatalf("spec %q: status %d: %s", specs[i%len(specs)], resp.StatusCode, raw)
			}
			if resp.StatusCode == http.StatusOK {
				if preds := decodePreds(t, bytes.NewReader(raw)); len(preds) != len(eval) {
					t.Fatalf("spec %q: truncated 200 stream: %d of %d verdicts", specs[i%len(specs)], len(preds), len(eval))
				}
			}
		}
		// Exercise the model-load point too.
		resp, err := http.Post(srv.URL+"/model?name=smoke", "application/octet-stream", bytes.NewReader(env.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if !allowed[resp.StatusCode] && resp.StatusCode != http.StatusCreated {
			t.Fatalf("spec %q: POST /model status %d", specs[i%len(specs)], resp.StatusCode)
		}
	}
	faultinject.Disarm()
	if hits := faultinject.Hits(faultinject.DataplaneLatency); hits == 0 {
		t.Error("smoke window never fired the dataplane-latency point")
	}
}
