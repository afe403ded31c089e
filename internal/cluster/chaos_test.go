package cluster

// Cluster chaos suite: a real gateway fronting real in-process
// ghsom-serve replicas (internal/serve registries over httptest), with
// replicas killed abruptly, drained, revived, and hot-swapped while a
// client streams detection work through. The invariants under every
// fault: zero failed client requests for shards with a surviving
// replica, byte-identical verdicts versus a single direct node, retries
// bounded by the deadline budget, and killed replicas re-admitted
// through the breaker's half-open probes after revival.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghsom"
	"ghsom/internal/faultinject"
	"ghsom/internal/kdd"
	"ghsom/internal/leakcheck"
	"ghsom/internal/serve"
	"ghsom/internal/trafficgen"
)

// clusterPipe caches one trained pipeline and its records across the
// chaos tests of this package.
var clusterPipe struct {
	once sync.Once
	pipe *ghsom.Pipeline
	recs []kdd.Record
	err  error
}

func testPipeline(t testing.TB) (*ghsom.Pipeline, []kdd.Record) {
	t.Helper()
	if testing.Short() {
		t.Skip("cluster chaos test; skipped with -short")
	}
	clusterPipe.once.Do(func() {
		recs, err := trafficgen.Generate(trafficgen.Small(71))
		if err != nil {
			clusterPipe.err = err
			return
		}
		cfg := ghsom.DefaultPipelineConfig()
		cfg.Model.EpochsPerGrowth = 3
		cfg.Model.FineTuneEpochs = 3
		cfg.Model.MaxGrowIters = 6
		cfg.Model.MaxDepth = 3
		cfg.TrainCapPerLabel = 800
		clusterPipe.pipe, clusterPipe.err = ghsom.TrainPipeline(recs, cfg)
		clusterPipe.recs = recs
	})
	if clusterPipe.err != nil {
		t.Fatal(clusterPipe.err)
	}
	return clusterPipe.pipe, clusterPipe.recs
}

func ndjson(t testing.TB, recs []kdd.Record) []byte {
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

// wantBytes renders predictions exactly as the serve tier does (one JSON
// document per line), so responses can be compared byte for byte.
func wantBytes(t *testing.T, preds []ghsom.Prediction) []byte {
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

// member is one in-process fleet replica: a real serve.Registry behind
// an httptest server whose connections can be severed abruptly — the
// down flag makes every new request hijack its connection and slam it
// shut, indistinguishable from the process dying mid-exchange. An armed
// dieOnDetect kills the member as its next detect arrives, so a drill
// can kill it mid-stream without racing the stream against a clock.
type member struct {
	reg         *serve.Registry
	srv         *httptest.Server
	down        atomic.Bool
	dieOnDetect atomic.Bool
}

func (m *member) kill()   { m.down.Store(true); m.srv.CloseClientConnections() }
func (m *member) revive() { m.down.Store(false) }

// startFleet brings up n replicas, each hosting the default model.
func startFleet(t testing.TB, n int, pipe *ghsom.Pipeline) []*member {
	t.Helper()
	fleet := make([]*member, n)
	for i := range fleet {
		m := &member{}
		m.reg = serve.NewRegistry(serve.Config{
			Instance:    fmt.Sprintf("replica-%d", i),
			MaxBatch:    64,
			Parallelism: 2,
		})
		if _, _, err := m.reg.Swap(serve.DefaultModelName, pipe); err != nil {
			t.Fatal(err)
		}
		inner := m.reg.Mux()
		m.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/detect" && m.dieOnDetect.CompareAndSwap(true, false) {
				m.kill()
			}
			if m.down.Load() {
				if hj, ok := w.(http.Hijacker); ok {
					if conn, _, err := hj.Hijack(); err == nil {
						conn.Close() // abrupt death: no status line, no FIN handshake grace
						return
					}
				}
				panic(http.ErrAbortHandler)
			}
			inner.ServeHTTP(w, r)
		}))
		fleet[i] = m
		t.Cleanup(func() { m.srv.Close(); m.reg.Close() })
	}
	return fleet
}

func fleetURLs(fleet []*member) []string {
	urls := make([]string, len(fleet))
	for i, m := range fleet {
		urls[i] = m.srv.URL
	}
	return urls
}

func memberByURL(fleet []*member, url string) *member {
	for _, m := range fleet {
		if m.srv.URL == url {
			return m
		}
	}
	return nil
}

// startGateway builds a gateway over the fleet with chaos-friendly
// timings and returns it with its HTTP front.
func startGateway(t testing.TB, fleet []*member, mut func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Replicas:         fleetURLs(fleet),
		Instance:         "gw-chaos",
		Replication:      2,
		MaxRetries:       4,
		RetryBase:        10 * time.Millisecond,
		HealthEvery:      50 * time.Millisecond,
		ProbeTimeout:     time.Second,
		BreakerThreshold: 1,
		BreakerCooldown:  200 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		front.Close()
		g.Close()
		g.client.CloseIdleConnections()
		g.probeClient.CloseIdleConnections()
	})
	g.CheckNow()
	return g, front
}

// detectOnce posts one NDJSON batch through the gateway and returns
// status, body, and the Retry-After header.
func detectOnce(t *testing.T, client *http.Client, frontURL, model string, body []byte, deadlineMs int) (int, []byte, string) {
	t.Helper()
	target := frontURL + "/detect"
	if model != "" {
		target += "?model=" + model
	}
	req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if deadlineMs > 0 {
		req.Header.Set(serve.DeadlineHeader, fmt.Sprint(deadlineMs))
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("client-visible transport error through gateway: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("torn response through gateway: %v", err)
	}
	return resp.StatusCode, raw, resp.Header.Get("Retry-After")
}

// streamPhase fires reqs requests of chunk records each from workers
// goroutines, asserting every response is 200 and byte-identical to the
// direct single-node verdicts. Returns when the phase's workload is
// fully served.
func streamPhase(t *testing.T, client *http.Client, frontURL string, chunks [][]byte, wants [][]byte, workers int) {
	t.Helper()
	var wg sync.WaitGroup
	var failures atomic.Int64
	per := (len(chunks) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, min((w+1)*per, len(chunks))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				status, raw, _ := detectOnce(t, client, frontURL, "", chunks[i], 10_000)
				if status != http.StatusOK {
					failures.Add(1)
					t.Errorf("request %d: status %d body %.120q", i, status, raw)
					continue
				}
				if !bytes.Equal(raw, wants[i]) {
					failures.Add(1)
					t.Errorf("request %d: verdicts not byte-identical to single-node", i)
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d failed requests in phase (want zero)", n)
	}
}

// chunkWorkload slices eval records into per-request NDJSON bodies with
// their expected byte-exact responses.
func chunkWorkload(t *testing.T, pipe *ghsom.Pipeline, recs []kdd.Record, nReq, per int) (chunks, wants [][]byte) {
	t.Helper()
	for i := 0; i < nReq; i++ {
		part := recs[(i*per)%(len(recs)-per) : (i*per)%(len(recs)-per)+per]
		preds, err := pipe.DetectAll(part)
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, ndjson(t, part))
		wants = append(wants, wantBytes(t, preds))
	}
	return chunks, wants
}

// TestClusterKillReviveMidStream is the headline drill: three replicas,
// a client streaming detects through the gateway, and the shard primary
// killed abruptly mid-stream, then revived. The client must see zero
// failures and byte-identical verdicts throughout; the gateway must
// absorb the death via retries, open the victim's breaker, route around
// it, and re-admit it through a half-open probe after revival.
func TestClusterKillReviveMidStream(t *testing.T) {
	leakcheck.CheckSlack(t, 4)
	pipe, recs := testPipeline(t)
	fleet := startFleet(t, 3, pipe)
	g, front := startGateway(t, fleet, nil)
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	// The victim is the shard primary for the default model: the member
	// the balancer prefers, guaranteed to be taking traffic when killed.
	shard := g.ring.shard(serve.DefaultModelName, 2)
	victim := memberByURL(fleet, shard[0].url)
	victimRep := shard[0]

	chunks, wants := chunkWorkload(t, pipe, recs, 36, 15)

	// Phase 1: whole fleet up.
	streamPhase(t, client, front.URL, chunks[:12], wants[:12], 3)

	// Phase 2: kill the primary as the first detect of the phase reaches
	// it, with the other streams in flight.
	victim.dieOnDetect.Store(true)
	streamPhase(t, client, front.URL, chunks[12:24], wants[12:24], 3)

	// The death was absorbed: retries happened, the victim's breaker
	// opened, and the checker marked it dead.
	if g.retries.Load() == 0 {
		t.Error("primary killed mid-stream but the gateway never retried")
	}
	if _, opens := victimRep.breaker.snapshot(time.Now()); opens == 0 {
		t.Error("victim breaker never opened despite abrupt connection kills")
	}
	deadline := time.Now().Add(2 * time.Second)
	for victimRep.health.Load() != healthDead && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := victimRep.health.Load(); got != healthDead {
		t.Errorf("victim health = %s after kill, want dead", healthStateName(int(got)))
	}
	sentWhileDead := victimRep.sent.Load()

	// Phase 3: revive. The checker re-classifies it healthy, the breaker
	// half-opens after its cooldown, and a probe request re-admits it.
	victim.revive()
	time.Sleep(300 * time.Millisecond) // > health period + breaker cooldown
	streamPhase(t, client, front.URL, chunks[24:], wants[24:], 3)

	if got := victimRep.health.Load(); got != healthHealthy {
		t.Errorf("victim health = %s after revival, want healthy", healthStateName(int(got)))
	}
	if state, _ := victimRep.breaker.snapshot(time.Now()); state != "closed" {
		t.Errorf("victim breaker = %s after successful probe, want closed", state)
	}
	if victimRep.sent.Load() <= sentWhileDead {
		t.Error("victim received no traffic after revival; breaker did not re-admit it")
	}
	if victimRep.transitions.Load() < 3 {
		t.Errorf("victim health transitions = %d, want >= 3 (unknown→healthy→dead→healthy)", victimRep.transitions.Load())
	}
	roll := g.Rollup(t.Context(), "")
	if roll.Requests < 36 || roll.Retries == 0 {
		t.Errorf("rollup requests/retries = %d/%d", roll.Requests, roll.Retries)
	}
}

// TestClusterDrainRoutesAround verifies graceful-drain integration: a
// draining replica flips its /healthz, the checker reclassifies it
// within one probe period, and new work flows only to its shard
// sibling — zero client-visible failures.
func TestClusterDrainRoutesAround(t *testing.T) {
	leakcheck.CheckSlack(t, 4)
	pipe, recs := testPipeline(t)
	fleet := startFleet(t, 3, pipe)
	g, front := startGateway(t, fleet, nil)
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	shard := g.ring.shard(serve.DefaultModelName, 2)
	draining := memberByURL(fleet, shard[0].url)
	drainingRep := shard[0]

	chunks, wants := chunkWorkload(t, pipe, recs, 16, 10)
	streamPhase(t, client, front.URL, chunks[:8], wants[:8], 2)

	draining.reg.BeginDrain()
	deadline := time.Now().Add(2 * time.Second)
	for drainingRep.health.Load() != healthDraining && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := drainingRep.health.Load(); got != healthDraining {
		t.Fatalf("health = %s after BeginDrain, want draining", healthStateName(int(got)))
	}
	sentAtDrain := drainingRep.sent.Load()
	streamPhase(t, client, front.URL, chunks[8:], wants[8:], 2)
	// Post-drain traffic went to the sibling; the drained replica may
	// have absorbed at most the retried stragglers from the reclassify
	// window, which the retry loop turned into successes elsewhere.
	if got := drainingRep.sent.Load(); got > sentAtDrain+2 {
		t.Errorf("draining replica kept receiving traffic: %d sends after drain", got-sentAtDrain)
	}
}

// TestClusterShardDegradationAndModelFanOut drives the per-shard
// degradation contract with replication 1 — killing a model's only
// owner sheds that model with 503 + Retry-After while other models keep
// serving — and, on the way, the gateway's model distribution: fan-out
// push with per-replica verification against GET /models.
func TestClusterShardDegradationAndModelFanOut(t *testing.T) {
	leakcheck.CheckSlack(t, 4)
	pipe, recs := testPipeline(t)
	fleet := startFleet(t, 3, pipe)
	g, front := startGateway(t, fleet, func(cfg *Config) {
		cfg.Replication = 1
		cfg.MaxRetries = 2
	})
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	// Pick a second model name whose single-owner shard differs from the
	// default model's owner, so one shard can die while the other serves.
	defOwner := g.ring.shard(serve.DefaultModelName, 1)[0]
	alt := "secondary"
	for i := 1; g.ring.shard(alt, 1)[0] == defOwner; i++ {
		alt = fmt.Sprintf("secondary-%d", i)
	}

	// Distribute the second model through the gateway and verify the
	// fan-out reached (and was verified on) every replica.
	var envelope bytes.Buffer
	if err := pipe.Save(&envelope); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(front.URL+"/model?name="+alt, "application/octet-stream", bytes.NewReader(envelope.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sum PushSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !sum.OK || len(sum.Replicas) != 3 {
		t.Fatalf("fan-out push: status %d, summary %+v", resp.StatusCode, sum)
	}
	for _, pr := range sum.Replicas {
		if !pr.Verified || pr.View == nil || pr.View.Name != alt {
			t.Errorf("replica %s push not verified: %+v", pr.Replica, pr)
		}
	}

	eval := recs[100:130]
	preds, err := pipe.DetectAll(eval)
	if err != nil {
		t.Fatal(err)
	}
	body, want := ndjson(t, eval), wantBytes(t, preds)

	// Kill the default model's only owner and wait for the checker.
	memberByURL(fleet, defOwner.url).kill()
	deadline := time.Now().Add(2 * time.Second)
	for defOwner.health.Load() != healthDead && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	status, raw, retryAfter := detectOnce(t, client, front.URL, "", body, 5000)
	if status != http.StatusServiceUnavailable {
		t.Errorf("dead shard: status %d body %.120q, want 503", status, raw)
	}
	if retryAfter == "" {
		t.Error("dead-shard 503 carries no Retry-After")
	}
	// The other shard is untouched: same fleet, same gateway, different
	// model — byte-identical verdicts keep flowing.
	status, raw, _ = detectOnce(t, client, front.URL, alt, body, 5000)
	if status != http.StatusOK || !bytes.Equal(raw, want) {
		t.Errorf("surviving shard: status %d, identical=%v — degradation leaked across shards", status, bytes.Equal(raw, want))
	}
	// Gateway stays ready: at least one replica is routable.
	hresp, err := client.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("gateway /healthz = %d with a surviving shard, want 200", hresp.StatusCode)
	}
	if g.shedNoReplica.Load() == 0 {
		t.Error("shedNoReplica counter did not move")
	}
}

// TestClusterSwapUnderLoad rolls a binary envelope to all three replicas
// through the gateway while clients stream detects: the distribution
// satellite's acceptance — zero dropped or torn responses and verdicts
// byte-identical to a single node throughout the roll.
func TestClusterSwapUnderLoad(t *testing.T) {
	leakcheck.CheckSlack(t, 4)
	pipe, recs := testPipeline(t)
	fleet := startFleet(t, 3, pipe)
	_, front := startGateway(t, fleet, func(cfg *Config) { cfg.Replication = 3 })
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	var envelope bytes.Buffer
	if err := pipe.Save(&envelope); err != nil {
		t.Fatal(err)
	}
	chunks, wants := chunkWorkload(t, pipe, recs, 30, 12)

	// Stream in the background; roll the model twice from here while the
	// stream is in flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		streamPhase(t, client, front.URL, chunks, wants, 3)
	}()
	for i := 0; i < 2; i++ {
		time.Sleep(5 * time.Millisecond)
		resp, err := client.Post(front.URL+"/model", "application/octet-stream", bytes.NewReader(envelope.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var sum PushSummary
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !sum.OK {
			t.Fatalf("roll %d: push not verified on all replicas: %+v", i, sum)
		}
	}
	<-done
	// Both rolls landed: every replica's default model swapped twice.
	for i, m := range fleet {
		resp, err := client.Get(m.srv.URL + "/models")
		if err != nil {
			t.Fatal(err)
		}
		var views []serve.ModelView
		if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(views) != 1 || views[0].Swaps < 2 {
			t.Errorf("replica %d models = %+v, want default with >= 2 swaps", i, views)
		}
	}
}

// TestClusterFaultInjectionNetwork drives the injected network faults —
// dial errors, dropped responses, slow replicas — through the gateway's
// transport and checks the retry path absorbs each without any
// client-visible failure.
func TestClusterFaultInjectionNetwork(t *testing.T) {
	leakcheck.CheckSlack(t, 4)
	pipe, recs := testPipeline(t)
	fleet := startFleet(t, 3, pipe)
	_, front := startGateway(t, fleet, func(cfg *Config) {
		cfg.HealthEvery = time.Hour // classify once below; faults then hit only the detect path
		cfg.BreakerThreshold = 2
	})
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	chunks, wants := chunkWorkload(t, pipe, recs, 12, 10)
	spec := fmt.Sprintf("%s=error:2,%s=error:1,%s=latency:20ms:3",
		faultinject.DialError, faultinject.DroppedResponse, faultinject.SlowReplica)
	if err := faultinject.Arm(spec); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	streamPhase(t, client, front.URL, chunks, wants, 2)
	if faultinject.Hits(faultinject.DialError) < 2 {
		t.Errorf("dial-error fired %d times, want 2", faultinject.Hits(faultinject.DialError))
	}
	if faultinject.Hits(faultinject.DroppedResponse) < 1 {
		t.Error("dropped-response never fired")
	}
}

// TestClusterGatewayStatsRollup sanity-checks the aggregated /stats
// document over a live fleet.
func TestClusterGatewayStatsRollup(t *testing.T) {
	pipe, recs := testPipeline(t)
	fleet := startFleet(t, 2, pipe)
	_, front := startGateway(t, fleet, nil)
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	chunks, wants := chunkWorkload(t, pipe, recs, 6, 8)
	streamPhase(t, client, front.URL, chunks, wants, 2)

	resp, err := client.Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var roll Rollup
	if err := json.NewDecoder(resp.Body).Decode(&roll); err != nil {
		t.Fatal(err)
	}
	if roll.Instance != "gw-chaos" || roll.Requests < 6 || len(roll.Replicas) != 2 {
		t.Fatalf("rollup = %+v", roll)
	}
	if roll.Aggregate.Records < int64(6*8) || roll.Aggregate.Routable != 2 {
		t.Errorf("aggregate = %+v, want >= %d records over 2 routable replicas", roll.Aggregate, 6*8)
	}
	for _, st := range roll.Replicas {
		if st.Health != "healthy" || st.Breaker != "closed" || st.Stats == nil {
			t.Errorf("replica status %+v, want healthy/closed with live stats", st)
		}
		if !strings.HasPrefix(st.Instance, "replica-") {
			t.Errorf("replica instance identity %q not propagated", st.Instance)
		}
	}
	// Aggregated model listing reaches both replicas.
	mresp, err := client.Get(front.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var listing []ReplicaModels
	if err := json.NewDecoder(mresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing) != 2 || len(listing[0].Models) != 1 || listing[0].Models[0].Name != serve.DefaultModelName {
		t.Errorf("aggregated /models = %+v", listing)
	}
}
