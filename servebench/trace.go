package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ghsom/internal/cluster"
	"ghsom/internal/serve"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// tracer records, while on, a span around every /detect served by a
// wrapped handler, the distinct bodies the replicas served, and every
// /stats document a replica served. A request's spans share the hash of
// its body as their id, since the gateway forwards no request ID.
type tracer struct {
	on     atomic.Bool
	seed   maphash.Seed
	mu     sync.Mutex
	spans  []span
	seen   map[uint64]bool
	bodies []capturedBody // distinct replica bodies in arrival order
	stats  []serve.StatsView
}

type capturedBody struct {
	body  []byte
	ctype string
}

func newTracer() *tracer { return &tracer{seed: maphash.MakeSeed(), seen: map[uint64]bool{}} }

// wrapper returns the handler wrapper deploy installs, or nil when the
// run is untraced.
func (t *tracer) wrapper() func(string, http.Handler) http.Handler {
	if t == nil {
		return nil
	}
	return t.wrap
}

func (t *tracer) wrap(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/detect":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			id := maphash.Bytes(t.seed, body)
			start := time.Now()
			next.ServeHTTP(w, r)
			end := time.Now()
			t.mu.Lock()
			t.spans = append(t.spans, span{layer: layer, id: id, start: start, end: end})
			if layer == "serve" && !t.seen[id] {
				t.seen[id] = true
				t.bodies = append(t.bodies, capturedBody{body: body, ctype: r.Header.Get("Content-Type")})
			}
			t.mu.Unlock()
		case r.Method == http.MethodGet && r.URL.Path == "/stats" && layer == "serve":
			tw := &teeWriter{ResponseWriter: w}
			next.ServeHTTP(tw, r)
			var v serve.StatsView
			if json.Unmarshal(tw.buf.Bytes(), &v) == nil {
				t.mu.Lock()
				t.stats = append(t.stats, v)
				t.mu.Unlock()
			}
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// teeWriter keeps a copy of what a handler writes.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// scrapeStats reads every replica's /stats directly.
func scrapeStats(ctx context.Context, st *stack) (map[string]serve.StatsView, error) {
	out := map[string]serve.StatsView{}
	for _, rep := range st.replicas {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/stats", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape /stats: %w", err)
		}
		var v serve.StatsView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape /stats: %w", err)
		}
		out[v.Instance] = v
	}
	return out, nil
}

// rollup reads the gateway's counters, or nil without a gateway.
func rollup(ctx context.Context, st *stack) *cluster.Rollup {
	if st.gw == nil {
		return nil
	}
	r := st.gw.Rollup(ctx, "")
	return &r
}

// traced is the traced run: set-up, an untraced phase and a traced phase
// of the same workload in one process (their difference is the tracing
// overhead), then the serving counters and the stage replay.
func (r *run) traced(ctx context.Context) error {
	tr := newTracer()
	st, times, err := r.setUp(ctx, tr)
	if err != nil {
		return err
	}
	defer st.close()
	for name, stage := range map[string]func(setupTiming) time.Duration{
		"setup.train_s": func(t setupTiming) time.Duration { return t.train },
		"setup.save_s":  func(t setupTiming) time.Duration { return t.save },
		"setup.load_s":  func(t setupTiming) time.Duration { return t.load },
		"setup.ready_s": func(t setupTiming) time.Duration { return t.ready },
	} {
		ds := make([]time.Duration, len(times))
		for i, t := range times {
			ds[i] = stage(t)
		}
		r.set(name, median(ds).Seconds(), "s")
	}
	c := newClient(st.url())
	defer c.close()
	r.warmUp(ctx, c)

	phase := func(first int, share float64) []sample {
		dur := time.Duration(float64(r.seconds) * share)
		if r.w.bulk {
			return closedLoop(ctx, c, r.reqs, first, dur)
		}
		return openLoop(ctx, c, r.reqs, first, poisson(newRand(r.seed), r.w.nominalRPS, 0, dur))
	}
	plain := phase(0, 0.3)
	r.tally(plain)
	// The rate ladder runs here, untraced, rather than in the end-to-end
	// run: which rung passes turns on p99 and moves from run to run on a
	// shared host, so it is reported without a bound.
	first, ladderRate := len(plain), 0.0
	if !r.w.bulk {
		var sent int
		ladderRate, sent = r.ladder(ctx, c, first)
		first += sent
	}
	r.set("loadgen.ladder_rps", ladderRate, "1/s")

	roll0 := rollup(ctx, st)
	base, err := scrapeStats(ctx, st)
	if err != nil {
		return err
	}
	tr.on.Store(true)
	ss := phase(first, 0.7)
	final, err := scrapeStats(ctx, st)
	tr.on.Store(false)
	if err != nil {
		return err
	}
	roll1 := rollup(ctx, st)
	r.tally(ss)

	lat := latencies(ss)
	lags := make([]time.Duration, len(ss))
	for i, s := range ss {
		lags[i] = s.lag()
	}
	r.set("loadgen.lag_p99_ms", ms(quantile(lags, 0.99)), "ms")
	r.set("loadgen.p99_ms", ms(quantile(lat, 0.99)), "ms")
	p50, p50Plain := quantile(lat, 0.5), quantile(latencies(plain), 0.5)
	r.set("trace.p50_ms", ms(p50), "ms")
	r.set("trace.p50_overhead_pct", 100*(ms(p50)/ms(p50Plain)-1), "%")
	rps, rpsPlain := float64(records(ss))/wall(ss).Seconds(), float64(records(plain))/wall(plain).Seconds()
	r.set("trace.records_per_s_overhead_pct", 100*(rpsPlain/rps-1), "%")

	r.spanMetrics(tr)
	r.statsMetrics(tr, base, final)
	r.clusterMetrics(roll0, roll1)
	c0 := st.served[0].Compiled()
	r.set("core.model_bytes", float64(c0.ArenaBytes()+c0.TableBytes()), "bytes")
	r.set("core.quant_bytes", float64(c0.QuantBytes()), "bytes")
	runtime.GC()
	return r.replay(tr.bodies, r.metricOr("serve.batch_records_mean", 1))
}

func (r *run) metricOr(name string, def float64) float64 {
	if m, ok := r.res.Metrics[name]; ok && m.Value > 0 {
		return m.Value
	}
	return def
}

// spanMetrics derives the handler percentiles and the gateway hop from
// the recorded spans.
func (r *run) spanMetrics(tr *tracer) {
	var handler []time.Duration
	byID := map[uint64][]span{}
	for _, s := range tr.spans {
		if s.layer == "serve" {
			handler = append(handler, s.end.Sub(s.start))
			byID[s.id] = append(byID[s.id], s)
		}
	}
	r.set("serve.handler_p50_ms", ms(quantile(handler, 0.5)), "ms")
	r.set("serve.handler_p99_ms", ms(quantile(handler, 0.99)), "ms")
	// The hop is the gateway span's self time: its duration minus the
	// replica spans of the same request it contains.
	var hop time.Duration
	n := 0
	for _, s := range tr.spans {
		if s.layer == "cluster" {
			hop += selfTime(s, byID[s.id])
			n++
		}
	}
	if n > 0 {
		hop /= time.Duration(n)
	}
	r.set("cluster.hop_mean_ms", ms(hop), "ms")
	r.fact("trace: %d serve spans, %d gateway spans", len(handler), n)
}

// statsMetrics derives the batcher and admission-queue numbers from the
// replicas' /stats documents between the base and final scrapes. Queue
// waits are windows since the previous scrape (the gateway's health
// checker scrapes too), so their mean is weighted by the jobs admitted
// in each window.
func (r *run) statsMetrics(tr *tracer, base, final map[string]serve.StatsView) {
	prev := map[string]serve.StatsView{}
	for k, v := range base {
		prev[k] = v
	}
	var waitSum, weight, waitMax float64
	for _, v := range tr.stats {
		p, ok := prev[v.Instance]
		if !ok {
			continue
		}
		w := float64(v.Admitted - p.Admitted)
		waitSum += v.QueueWaitMeanMs * w
		weight += w
		waitMax = max(waitMax, v.QueueWaitMaxMs)
		prev[v.Instance] = v
	}
	if weight > 0 {
		waitSum /= weight
	}
	r.set("serveq.wait_mean_ms", waitSum, "ms")
	r.set("serveq.wait_max_ms", waitMax, "ms")
	var batches, recs int64
	var flushMs float64
	var shed int64
	for k, f := range final {
		b := base[k]
		batches += f.Batches - b.Batches
		recs += f.Records - b.Records
		flushMs += f.MeanBatchMs*float64(f.Batches) - b.MeanBatchMs*float64(b.Batches)
		shed += (f.ShedQueueFull + f.ShedDeadline + f.ShedClosed + f.DroppedDeadline) -
			(b.ShedQueueFull + b.ShedDeadline + b.ShedClosed + b.DroppedDeadline)
	}
	if batches > 0 {
		r.set("serve.batch_records_mean", float64(recs)/float64(batches), "records")
		r.set("serve.flush_mean_ms", flushMs/float64(batches), "ms")
	} else {
		r.set("serve.batch_records_mean", 0, "records")
		r.set("serve.flush_mean_ms", 0, "ms")
	}
	r.set("serve.shed", float64(shed), "count")
}

// clusterMetrics derives the gateway's retry rate and replica skew over
// the traced phase; both read 0 without a gateway.
func (r *run) clusterMetrics(r0, r1 *cluster.Rollup) {
	retries, skew := 0.0, 0.0
	if r0 != nil && r1 != nil {
		if reqs := r1.Requests - r0.Requests; reqs > 0 {
			retries = float64(r1.Retries-r0.Retries) / float64(reqs)
		}
		var total, busiest int64
		for i := range r1.Replicas {
			sent := r1.Replicas[i].Sent - r0.Replicas[i].Sent
			total += sent
			busiest = max(busiest, sent)
		}
		if total > 0 {
			skew = float64(busiest) / float64(total) * float64(len(r1.Replicas))
		}
	}
	r.set("cluster.retries_per_req", retries, "1/req")
	r.set("cluster.replica_skew", skew, "ratio")
}
