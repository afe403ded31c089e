package cluster

// Unit tests for the coordinator's mechanisms: the consistent-hash ring,
// the per-replica circuit breaker, health classification, routing,
// retry/backoff semantics, deadline budgets, and hedging — all against
// lightweight fake replicas, so they run even with -short. The
// end-to-end fleet behaviour over real ghsom-serve registries lives in
// chaos_test.go.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"ghsom/internal/serve"
)

func testReplicas(n int) []*replica {
	reps := make([]*replica, n)
	for i := range reps {
		reps[i] = &replica{url: fmt.Sprintf("http://replica-%d:8741", i), breaker: newBreaker(3, time.Second)}
	}
	return reps
}

func TestRingDeterministicDistinctShards(t *testing.T) {
	reps := testReplicas(3)
	r1, r2 := newRing(reps), newRing(reps)
	for _, model := range []string{"default", "alpha", "beta", "a-very-long-model-name"} {
		s1, s2 := r1.shard(model, 2), r2.shard(model, 2)
		if len(s1) != 2 || len(s2) != 2 {
			t.Fatalf("shard(%q, 2) sizes = %d, %d", model, len(s1), len(s2))
		}
		if s1[0] != s2[0] || s1[1] != s2[1] {
			t.Errorf("shard(%q) not deterministic across ring builds", model)
		}
		if s1[0] == s1[1] {
			t.Errorf("shard(%q) repeated a replica", model)
		}
	}
	// Requesting more copies than members yields every member, once.
	if got := r1.shard("default", 5); len(got) != 3 {
		t.Errorf("shard(default, 5) = %d replicas, want all 3", len(got))
	}
	// Every replica owns a reasonable share of primaries.
	owners := map[*replica]int{}
	for i := 0; i < 300; i++ {
		owners[r1.shard(fmt.Sprintf("model-%d", i), 1)[0]]++
	}
	for _, rep := range reps {
		if owners[rep] < 30 {
			t.Errorf("replica %s owns only %d/300 primaries; ring badly skewed", rep.url, owners[rep])
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(2, 50*time.Millisecond)
	now := time.Now()
	if ok, probe := b.allow(now); !ok || probe {
		t.Fatalf("closed breaker: allow = %v, %v", ok, probe)
	}
	b.failure(now)
	if ok, _ := b.allow(now); !ok {
		t.Fatal("one failure under threshold should still allow")
	}
	b.failure(now) // hits threshold: opens
	if ok, _ := b.allow(now); ok {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if state, opens := b.snapshot(now); state != "open" || opens != 1 {
		t.Fatalf("snapshot = %s/%d, want open/1", state, opens)
	}
	later := now.Add(60 * time.Millisecond)
	if state, _ := b.snapshot(later); state != "half-open" {
		t.Fatalf("post-cooldown display state = %s, want half-open", state)
	}
	ok, probe := b.allow(later)
	if !ok || !probe {
		t.Fatalf("post-cooldown allow = %v, %v, want probe admission", ok, probe)
	}
	if ok, _ := b.allow(later); ok {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	b.failure(later) // probe failed: re-open
	if state, opens := b.snapshot(later); state != "open" || opens != 2 {
		t.Fatalf("after failed probe: %s/%d, want open/2", state, opens)
	}
	later = later.Add(60 * time.Millisecond)
	if ok, probe := b.allow(later); !ok || !probe {
		t.Fatal("second probe not admitted after second cooldown")
	}
	b.success()
	if state, _ := b.snapshot(later); state != "closed" {
		t.Fatal("probe success did not close the breaker")
	}
	if ok, probe := b.allow(later); !ok || probe {
		t.Fatal("closed breaker after recovery should pass traffic freely")
	}
}

func TestNewValidatesAndDedupes(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no replicas succeeded")
	}
	g, err := New(Config{Replicas: []string{"http://a:1/", "http://a:1", "http://b:2"}, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if len(g.replicas) != 2 {
		t.Errorf("dedupe: %d replicas, want 2", len(g.replicas))
	}
	if g.cfg.Replication != 2 {
		t.Errorf("replication defaulted to %d, want 2 (capped at fleet)", g.cfg.Replication)
	}
}

// fakeReplica is a scriptable stand-in for ghsom-serve: a handler whose
// detect behaviour is swappable at runtime.
type fakeReplica struct {
	srv    *httptest.Server
	detect atomic.Pointer[http.HandlerFunc]
}

func newFakeReplica(t *testing.T, instance string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	okDetect := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "echo:%s:%d", instance, len(body))
	})
	f.detect.Store(&okDetect)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/livez", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "{}") })
	mux.HandleFunc("/detect", func(w http.ResponseWriter, r *http.Request) { (*f.detect.Load())(w, r) })
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.InstanceHeader, instance)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) script(h http.HandlerFunc) { f.detect.Store(&h) }

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = time.Hour // probe only via CheckNow, keeping tests deterministic
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.Close()
		g.client.CloseIdleConnections()
		g.probeClient.CloseIdleConnections()
	})
	g.CheckNow()
	return g
}

func TestGatewayPassThroughAndDeadlineRewrite(t *testing.T) {
	f := newFakeReplica(t, "rep-a")
	var sawDeadline atomic.Int64
	f.script(func(w http.ResponseWriter, r *http.Request) {
		if ms := r.Header.Get(serve.DeadlineHeader); ms != "" {
			var v int64
			fmt.Sscanf(ms, "%d", &v)
			sawDeadline.Store(v)
		}
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, "verdict")
	})
	g := newTestGateway(t, Config{Replicas: []string{f.srv.URL}, Instance: "gw-test"})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/detect", strings.NewReader("{}\n"))
	req.Header.Set(serve.DeadlineHeader, "5000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "verdict" {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
	if got := resp.Header.Get(serve.InstanceHeader); got != "gw-test" {
		t.Errorf("gateway instance header = %q", got)
	}
	if resp.Header.Get("X-GHSOM-Upstream") != f.srv.URL {
		t.Errorf("upstream header = %q, want %s", resp.Header.Get("X-GHSOM-Upstream"), f.srv.URL)
	}
	// The per-hop deadline must be the remaining budget: positive and no
	// larger than what the client sent.
	if ms := sawDeadline.Load(); ms < 1 || ms > 5000 {
		t.Errorf("replica saw deadline %dms, want (0, 5000]", ms)
	}
}

// TestGatewayForwardsModelNameEscaped pins that /detect reaches the
// replica under the exact model name the client asked for, including
// names with query metacharacters: forwarded unescaped, "a&b" arrived as
// model "a" (a 404, or another model's verdicts if "a" existed).
func TestGatewayForwardsModelNameEscaped(t *testing.T) {
	f := newFakeReplica(t, "rep-a")
	var saw atomic.Pointer[string]
	f.script(func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("model")
		saw.Store(&name)
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, "verdict")
	})
	g := newTestGateway(t, Config{Replicas: []string{f.srv.URL}})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	for _, name := range []string{"a&b", "a b", "x+y", "c#d", "p%q", "m=n&model=o", "default"} {
		saw.Store(nil)
		resp, err := http.Post(srv.URL+"/detect?model="+url.QueryEscape(name), "application/x-ndjson", strings.NewReader("{}\n"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("model %q: status %d", name, resp.StatusCode)
		}
		got := "<no request>"
		if p := saw.Load(); p != nil {
			got = *p
		}
		if got != name {
			t.Errorf("model %q reached the replica as %q", name, got)
		}
	}
}

func TestGatewayRetriesFailoverToSibling(t *testing.T) {
	a := newFakeReplica(t, "rep-a")
	b := newFakeReplica(t, "rep-b")
	// Both replicas shed with 503 a few times, then serve. Wherever the
	// ring sends the first attempt, the bounded retry loop must land on a
	// success without the client seeing any failure.
	var sheds atomic.Int64
	shedThen := func(f *fakeReplica, inst string) {
		f.script(func(w http.ResponseWriter, r *http.Request) {
			if sheds.Add(1) <= 2 {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			io.Copy(io.Discard, r.Body)
			fmt.Fprint(w, "ok:"+inst)
		})
	}
	shedThen(a, "rep-a")
	shedThen(b, "rep-b")
	g := newTestGateway(t, Config{
		Replicas:   []string{a.srv.URL, b.srv.URL},
		MaxRetries: 3,
		RetryBase:  5 * time.Millisecond,
	})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	start := time.Now()
	resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", strings.NewReader("{}\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok:") {
		t.Fatalf("status %d body %q, want retried success", resp.StatusCode, body)
	}
	// Retry-After: 1 from the shed responses must floor the backoff: two
	// sheds mean at least ~2s total wait before the success.
	if elapsed := time.Since(start); elapsed < 1500*time.Millisecond {
		t.Errorf("request completed in %v; Retry-After floor not honored", elapsed)
	}
	if g.retries.Load() < 2 {
		t.Errorf("retries = %d, want >= 2", g.retries.Load())
	}
}

func TestGatewayNeverRetriesPastDeadline(t *testing.T) {
	f := newFakeReplica(t, "rep-a")
	var attempts atomic.Int64
	f.script(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Retry-After", "5")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	})
	g := newTestGateway(t, Config{Replicas: []string{f.srv.URL}, MaxRetries: 5, RetryBase: 5 * time.Millisecond})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/detect", strings.NewReader("{}\n"))
	req.Header.Set(serve.DeadlineHeader, "300") // far less than the 5s Retry-After floor
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want the replica's 429 passed through", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("request took %v; gateway slept past the deadline budget", elapsed)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("replica saw %d attempts, want 1 (no budget for a retry)", n)
	}
	if g.deadlineStops.Load() != 1 {
		t.Errorf("deadlineStops = %d, want 1", g.deadlineStops.Load())
	}
}

// TestGatewayDetectBodyCap pins the gateway's /detect body read: a body
// within MaxBody reaches the replica whole, with or without a declared
// Content-Length, and one byte more is a 413 either way.
func TestGatewayDetectBodyCap(t *testing.T) {
	f := newFakeReplica(t, "rep-a")
	const maxBody = 64
	g := newTestGateway(t, Config{Replicas: []string{f.srv.URL}, MaxBody: maxBody})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	for _, tc := range []struct {
		n       int
		chunked bool
		want    int
	}{
		{maxBody, false, http.StatusOK},
		{maxBody, true, http.StatusOK},
		{maxBody + 1, false, http.StatusRequestEntityTooLarge},
		{maxBody + 1, true, http.StatusRequestEntityTooLarge},
	} {
		var body io.Reader = strings.NewReader(strings.Repeat("x", tc.n))
		if tc.chunked {
			body = io.MultiReader(body) // hides the length: sent chunked
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/detect", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte body (chunked %v): status %d, want %d", tc.n, tc.chunked, resp.StatusCode, tc.want)
		}
		if echo := fmt.Sprintf("echo:rep-a:%d", tc.n); tc.want == http.StatusOK && string(raw) != echo {
			t.Errorf("%d-byte body (chunked %v): replica answered %q, want %q", tc.n, tc.chunked, raw, echo)
		}
	}
	http.DefaultClient.CloseIdleConnections()
}

// TestGatewayDetectHugeClaimTinyBody pins the memory-safety contract of
// the /detect body read: allocation follows the bytes that arrive, never
// the Content-Length a client declares. A request claiming the default
// MaxBody that breaks off after a few bytes is a 400 and must allocate
// nothing close to the claim.
func TestGatewayDetectHugeClaimTinyBody(t *testing.T) {
	f := newFakeReplica(t, "rep-a")
	g := newTestGateway(t, Config{Replicas: []string{f.srv.URL}})
	h := g.Handler()
	body := io.MultiReader(strings.NewReader(`{"duration":`), iotest.ErrReader(io.ErrUnexpectedEOF))
	req := httptest.NewRequest(http.MethodPost, "/detect", body)
	req.ContentLength = serve.DefaultMaxBodyBytes
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want %d", rec.Code, http.StatusBadRequest)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("reading a %d-byte body claiming %d bytes allocated %d bytes, want < 1 MiB",
			len(`{"duration":`), int64(serve.DefaultMaxBodyBytes), alloc)
	}
}

func TestGatewayShedsWhenShardEmpty(t *testing.T) {
	f := newFakeReplica(t, "rep-a")
	g := newTestGateway(t, Config{Replicas: []string{f.srv.URL}, MaxRetries: 2, RetryBase: time.Millisecond})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	f.srv.Close() // the whole shard dies
	g.CheckNow()
	resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", strings.NewReader("{}\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 for an empty shard", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 missing Retry-After")
	}
	if g.shedNoReplica.Load() != 1 {
		t.Errorf("shedNoReplica = %d, want 1", g.shedNoReplica.Load())
	}
	// The gateway itself is now unhealthy: no routable replicas at all.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("gateway /healthz = %d with a dead fleet, want 503", hresp.StatusCode)
	}
}

func TestGatewayHealthClassification(t *testing.T) {
	healthy := newFakeReplica(t, "rep-ok")
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case "/livez":
			fmt.Fprintln(w, "ok")
		}
	}))
	defer draining.Close()
	g := newTestGateway(t, Config{Replicas: []string{healthy.srv.URL, draining.URL}})
	for _, rep := range g.replicas {
		want := healthHealthy
		if rep.url == draining.URL {
			want = healthDraining
		}
		if got := int(rep.health.Load()); got != want {
			t.Errorf("replica %s health = %s, want %s", rep.url, healthStateName(got), healthStateName(want))
		}
	}
	roll := g.Rollup(t.Context(), "")
	if roll.Aggregate.Routable != 1 {
		t.Errorf("routable = %d, want 1", roll.Aggregate.Routable)
	}
	for _, st := range roll.Replicas {
		if st.Replica == healthy.srv.URL && st.Instance != "rep-ok" {
			t.Errorf("instance identity not captured from probe: %+v", st)
		}
	}
}

func TestGatewayHedgesSlowReplica(t *testing.T) {
	a := newFakeReplica(t, "rep-a")
	b := newFakeReplica(t, "rep-b")
	g := newTestGateway(t, Config{
		Replicas: []string{a.srv.URL, b.srv.URL},
		Hedge:    25 * time.Millisecond,
	})
	// Whichever member receives the first attempt stalls, so the hedge
	// must fire and the sibling must win the race — independent of which
	// member the balancer rotates to first.
	var arrivals atomic.Int64
	stall := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if arrivals.Add(1) == 1 {
			time.Sleep(600 * time.Millisecond)
			fmt.Fprint(w, "slow")
			return
		}
		fmt.Fprint(w, "fast")
	}
	a.script(stall)
	b.script(stall)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	start := time.Now()
	resp, err := http.Post(srv.URL+"/detect", "application/x-ndjson", strings.NewReader("{}\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) == "slow" {
		t.Fatalf("status %d body %q, want the fast sibling's answer", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("hedged request took %v, slower than the slow replica path", elapsed)
	}
	if g.hedges.Load() != 1 || g.hedgeWins.Load() != 1 {
		t.Errorf("hedges/wins = %d/%d, want 1/1", g.hedges.Load(), g.hedgeWins.Load())
	}
	time.Sleep(700 * time.Millisecond) // let the slow loser finish before leak-sensitive teardown
}
